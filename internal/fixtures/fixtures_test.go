package fixtures

import (
	"testing"

	"optimatch/internal/qep"
)

func TestAllFixturesValidAndRoundTrip(t *testing.T) {
	plans := All()
	if len(plans) != 5 {
		t.Fatalf("All() = %d plans", len(plans))
	}
	plans = append(plans, SharedTemp())
	seen := map[string]bool{}
	for _, p := range plans {
		if seen[p.ID] {
			t.Errorf("duplicate fixture id %s", p.ID)
		}
		seen[p.ID] = true
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.ID, err)
		}
		text := qep.Text(p)
		p2, err := qep.Parse(text)
		if err != nil {
			t.Errorf("%s does not re-parse: %v", p.ID, err)
			continue
		}
		if p2.NumOps() != p.NumOps() {
			t.Errorf("%s: ops after round trip = %d, want %d", p.ID, p2.NumOps(), p.NumOps())
		}
	}
}

func TestNumbered(t *testing.T) {
	plans := Numbered(12)
	if len(plans) != 12 {
		t.Fatalf("Numbered(12) = %d", len(plans))
	}
	seen := map[string]bool{}
	for _, p := range plans {
		if seen[p.ID] {
			t.Errorf("duplicate id %s", p.ID)
		}
		seen[p.ID] = true
	}
}

func TestRenamed(t *testing.T) {
	p := Renamed(Clean(), "XX")
	if p.ID != "XX" {
		t.Errorf("id = %s", p.ID)
	}
}

func TestSharedTempIsDAG(t *testing.T) {
	p := SharedTemp()
	temp := p.Op(6)
	if len(temp.Parents) != 2 {
		t.Fatalf("TEMP parents = %d, want 2", len(temp.Parents))
	}
	// Walk still visits each operator once.
	visits := map[int]int{}
	p.Walk(func(op *qep.Operator) { visits[op.ID]++ })
	for id, n := range visits {
		if n != 1 {
			t.Errorf("operator %d visited %d times", id, n)
		}
	}
	if len(visits) != p.NumOps() {
		t.Errorf("walked %d of %d operators", len(visits), p.NumOps())
	}
}
