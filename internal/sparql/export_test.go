package sparql

// ExecReference exposes the algebra oracle and its result tail
// (eval_ref_test.go) to tests
// in package sparql_test, which may import the packages that build real
// workloads without an import cycle.
var ExecReference = execReference

// RowStrings exposes the row rendering the equivalence tests compare by.
var RowStrings = rowStrings
