package rdf

// What the tests of package rdf_test (plan_test.go: graphs of transformed
// plans, which this package cannot import) share with the ones in here.
var (
	WriteNTriplesReference = writeNTriplesReference
	FuzzLiterals           = fuzzLiterals
	FuzzFloats             = fuzzFloats
)
