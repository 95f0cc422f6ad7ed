package qep

// The header scanners and the reference writer, for fuzz_test.go and
// write_test.go: they are in package qep_test so that they can seed from
// internal/fixtures and internal/workload, which import this package.
var (
	OperatorHeader = operatorHeader
	StreamHeader   = streamHeader
	WriteReference = writeReference
)
