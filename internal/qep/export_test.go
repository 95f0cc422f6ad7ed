package qep

// The header scanners, for fuzz_test.go: it is in package qep_test so that it
// can seed from internal/fixtures and internal/workload, which import this
// package.
var (
	OperatorHeader = operatorHeader
	StreamHeader   = streamHeader
)
