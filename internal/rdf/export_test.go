package rdf

// What the tests of package rdf_test (plan_test.go: graphs of transformed
// plans, which this package cannot import) share with the ones in here.
var (
	WriteNTriplesReference = writeNTriplesReference
	FuzzLiterals           = fuzzLiterals
	FuzzFloats             = fuzzFloats
)

// ProbeLength reports how far the IDs of d sit from the slots their hashes
// pick, in slots: the mean and the largest distance.
func ProbeLength(d *Dict) (mean float64, longest int) {
	mask, total := len(d.slots)-1, 0
	for i, id := range d.slots {
		if id == NoID {
			continue
		}
		dist := (i - int(hash(d.probeKey(id)))) & mask
		total, longest = total+dist, max(longest, dist)
	}
	return float64(total) / float64(d.Len()), longest
}
