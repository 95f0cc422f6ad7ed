//go:build !race

package jsonstr

import "testing"

// TestAllocBudgetCodec: Append into an empty buffer and Unquote each allocate
// once, at the exact size, whatever the escapes in the text. (Outside the
// race build, whose instrumentation allocates.)
func TestAllocBudgetCodec(t *testing.T) {
	text := explainText(t) + "<&> \u2028 \xff \x01 \u00e9"
	spelled := Append(nil, text)
	raw := []byte(text)
	if n := testing.AllocsPerRun(20, func() { Append(nil, text) }); n != 1 {
		t.Errorf("Append(nil, text) = %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(20, func() { Append(nil, raw) }); n != 1 {
		t.Errorf("Append(nil, []byte(text)) = %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(20, func() { Unquote(spelled) }); n != 1 {
		t.Errorf("Unquote = %v allocations, want 1", n)
	}
}
