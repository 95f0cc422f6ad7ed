// The benchmark is a module of its own so that it builds from its own
// directory and stays out of the parent module's ./... patterns. The
// module path keeps the "optimatch/" prefix, which is what lets it import
// optimatch/internal/...; the replace directive binds it to the checkout
// it sits in, so it always measures the code next to it.
module optimatch/bench

go 1.22

require optimatch v0.0.0

replace optimatch => ../
