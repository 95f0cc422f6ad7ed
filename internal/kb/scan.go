package kb

import "sort"

// Scan is one version of a knowledge base laid out for a scan (Algorithm 5).
// Entries holds every entry, each after every entry that contains it
// (sparql.Shape.Contains: the same query with thresholds at least as loose).
// Guards[i] is the position in Entries of entry i's guard, the tightest of the
// entries before it that contain it, or -1 when none does. An entry whose guard
// found nothing in a plan finds nothing there either, so a scan skips it.
type Scan struct {
	Entries []*Entry
	Guards  []int
}

// schedule lays entries out for a scan. Only entries of one shape key are
// compared, so unrelated patterns cost a map insert each.
//
// Containment is transitive: if X contains Y and Y not X, every container of
// X contains Y, and X is one more, so Y has more containers than X. Sorting by
// the number of containers therefore puts every strict container first, and
// equal-shape duplicates, which contain each other, in insertion order; and of
// an entry's containers, the one with the most containers of its own has no
// strictly tighter one beside it.
func schedule(entries []*Entry) Scan {
	families := make(map[string][]int)
	for i, e := range entries {
		if e.shape.Key != "" {
			families[e.shape.Key] = append(families[e.shape.Key], i)
		}
	}
	contains := func(j, i int) bool { return j != i && entries[j].shape.Contains(entries[i].shape) }
	containers := make([]int, len(entries))
	for _, family := range families {
		for _, i := range family {
			for _, j := range family {
				if contains(j, i) {
					containers[i]++
				}
			}
		}
	}

	order := make([]int, len(entries))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return containers[order[a]] < containers[order[b]] })
	pos := make([]int, len(entries))
	s := Scan{Entries: make([]*Entry, len(entries)), Guards: make([]int, len(entries))}
	for p, i := range order {
		pos[i], s.Entries[p] = p, entries[i]
	}
	for p, i := range order {
		guard := -1
		for _, j := range families[entries[i].shape.Key] {
			if pos[j] < p && contains(j, i) && (guard < 0 || containers[j] > containers[guard]) {
				guard = j
			}
		}
		s.Guards[p] = -1
		if guard >= 0 {
			s.Guards[p] = pos[guard]
		}
	}
	return s
}
