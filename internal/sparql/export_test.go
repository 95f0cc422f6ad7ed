package sparql

// ExecReference exposes the algebra oracle and its result tail
// (eval_ref_test.go) to tests
// in package sparql_test, which may import the packages that build real
// workloads without an import cycle.
var ExecReference = execReference

// RowStrings exposes the row rendering the equivalence tests compare by.
var RowStrings = rowStrings

// BenchDeck exposes the benchmark's raw SPARQL requests (print_test.go).
var BenchDeck = benchDeck

// AnalysisOracle exposes the oracle of Analysis.Required and Analysis.Consts
// (analyze_test.go).
var AnalysisOracle = oracleAnalysis
