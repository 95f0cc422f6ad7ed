package sparql

import "optimatch/internal/rdf"

// Property-path evaluation. Arbitrary-length paths (`+`, `*`) are the hot
// spot: OptImatch's expert patterns use them to find problem shapes anywhere
// in a QEP tree, so a 1000-plan knowledge-base scan runs thousands of
// closure walks. A closure is a BFS over the adjacency slices of the graph's
// index (rdf.Graph.ObjectIDs / SubjectIDs), with bitset visited sets and
// pooled frontier buffers; full closure results are memoized per (path,
// direction, start) for the lifetime of one query evaluation, and the walk
// direction for doubly-bound closures is chosen from index cardinalities.
// Emission order is deterministic: the adjacency slices are the lists Match
// iterates, in insertion order, and the memo replays BFS discovery order, so
// a replayed closure and a live one emit the same pair sequence.

// pathEnv carries the graph a property path evaluates against plus the
// per-evaluation acceleration state: the evaluation's resolved predicate
// IRIs (optional), the closure memo, and reusable bitset/frontier buffers.
// One pathEnv lives per query evaluation and is not safe for concurrent use.
//
// The buffer pools are stacks and every walk returns what it took, whether
// it ran to the end or was stopped, so the environment is re-entrant: a walk
// may start while another one's buffers are still out (nested closures, the
// pair buffers the depth-first join holds across its descent), and an
// environment a cancelled evaluation hands back to the evalCtx pool is clean.
type pathEnv struct {
	g *rdf.Graph

	// predConst maps a predicate IRI to its const number in the evaluation's
	// program and consts that number to its ID in g.
	predConst map[string]int
	consts    []rdf.ID

	// cancel is the evaluation's cooperative cancellation checkpoint
	// (shared with the evalCtx that owns this env; nil means the
	// evaluation cannot be cancelled). Closure BFS walks poll it per
	// frontier expansion so an unanchored walk over a large ID space stops
	// within one stride of the deadline.
	cancel *canceller

	// stats accumulates path-acceleration counters for this evaluation;
	// flushed into ExecOptions.Stats when the evaluation finishes.
	stats PathStats

	// memo caches full closure results per (inner path, direction, start)
	// so a pattern that probes the same closure from many bindings pays for
	// the BFS once.
	memo map[closureKey]*closureSet

	// visitedPool and idPool recycle bitset and frontier buffers across the
	// closures of one evaluation (nested closures pop their own buffers) and,
	// the env living on a pooled evalCtx, across evaluations. stale is how
	// many bitsets at the bottom of visitedPool this evaluation has not used
	// yet: taking one of those is charged to BitsetBytes like an allocation,
	// so the counter does not depend on what the pool happened to hold.
	visitedPool [][]uint64
	idPool      [][]rdf.ID
	stale       int
}

// PathStats counts path-acceleration events during one evaluation. Plain
// ints: a pathEnv is single-goroutine; the totals are flushed into the
// atomic EvalStats once per execution.
type PathStats struct {
	MemoHits    int64 // closures replayed from the per-evaluation memo
	MemoMisses  int64 // closures that ran a BFS
	BFSSteps    int64 // edges traversed by closure BFS walks
	BitsetBytes int64 // bytes of visited bitset brought into use (first use by this evaluation; reuse within it is free)
}

// closureKey identifies one memoized closure: the inner path, the walk
// direction, and the start node. A (possibly inverted) plain predicate — the
// inner path of nearly every closure — is keyed by its IRI and orientation,
// which costs no allocation; any other path by its canonical SPARQL syntax.
type closureKey struct {
	path             string
	simple, inverted bool
	backward         bool
	start            rdf.ID
}

// closureSet is a memoized closure result: every node reachable from start
// in >= 1 applications of the inner path, in BFS discovery order. The start
// node itself appears in the list iff it is reachable in >= 1 steps (a
// cycle), at the position the cycle was discovered — replaying the list
// therefore reproduces the exact emission sequence of a live BFS.
type closureSet struct {
	reached []rdf.ID
}

func (e *pathEnv) predID(iri string) rdf.ID {
	if n, ok := e.predConst[iri]; ok {
		return e.consts[n]
	}
	return e.g.Dict().Lookup(rdf.IRI(iri))
}

// evalPath emits every (subject, object) pair connected by the property path
// p in graph env.g. A rdf.NoID endpoint is a wildcard; a non-NoID endpoint
// constrains that side. emit returns false to stop the enumeration; evalPath
// returns false when it was stopped early.
//
// Closure paths (`+`, `*`) are evaluated with breadth-first search and set
// semantics (each reachable pair is emitted once per start node), matching
// SPARQL 1.1 arbitrary-length path semantics.
func evalPath(env *pathEnv, p Path, s, o rdf.ID, emit func(s, o rdf.ID) bool) bool {
	g := env.g
	switch p := p.(type) {
	case PredPath:
		pid := env.predID(p.IRI)
		if pid == rdf.NoID {
			return true // predicate absent from graph: zero matches
		}
		cont := true
		g.Match(s, pid, o, func(ms, _, mo rdf.ID) bool {
			if !emit(ms, mo) {
				cont = false
				return false
			}
			return true
		})
		return cont
	case InvPath:
		return evalPath(env, p.Inner, o, s, func(a, b rdf.ID) bool { return emit(b, a) })
	case SeqPath:
		return evalSeq(env, p.Parts, s, o, emit)
	case AltPath:
		for _, alt := range p.Alts {
			if !evalPath(env, alt, s, o, emit) {
				return false
			}
		}
		return true
	case ModPath:
		return evalMod(env, p, s, o, emit)
	default:
		// predVarPath is handled by the evaluator before reaching here.
		panic("sparql: evalPath on unsupported path type")
	}
}

func evalSeq(env *pathEnv, parts []Path, s, o rdf.ID, emit func(s, o rdf.ID) bool) bool {
	if len(parts) == 1 {
		return evalPath(env, parts[0], s, o, emit)
	}
	if s != rdf.NoID || o == rdf.NoID {
		// Evaluate left to right; dedupe (start, mid) pairs so diamond
		// shapes do not explode. With a bound start every pair shares it, so
		// mids dedupe on a pooled bitset instead of a map.
		if s != rdf.NoID {
			seen := env.getVisited()
			marked := env.getIDs()
			cont := evalPath(env, parts[0], s, rdf.NoID, func(start, mid rdf.ID) bool {
				if bitGet(seen, mid) {
					return true
				}
				bitSet(seen, mid)
				marked = append(marked, mid)
				return evalSeq(env, parts[1:], mid, o, func(_, end rdf.ID) bool {
					return emit(start, end)
				})
			})
			env.putVisited(seen, marked)
			env.putIDs(marked)
			return cont
		}
		seen := make(map[[2]rdf.ID]bool)
		return evalPath(env, parts[0], s, rdf.NoID, func(start, mid rdf.ID) bool {
			key := [2]rdf.ID{start, mid}
			if seen[key] {
				return true
			}
			seen[key] = true
			return evalSeq(env, parts[1:], mid, o, func(_, end rdf.ID) bool {
				return emit(start, end)
			})
		})
	}
	// Only the object side is bound: evaluate right to left. Every pair
	// shares the bound end, so dedupe mids the same way.
	last := parts[len(parts)-1]
	seen := env.getVisited()
	marked := env.getIDs()
	cont := evalPath(env, last, rdf.NoID, o, func(mid, end rdf.ID) bool {
		if bitGet(seen, mid) {
			return true
		}
		bitSet(seen, mid)
		marked = append(marked, mid)
		return evalSeq(env, parts[:len(parts)-1], rdf.NoID, mid, func(start, _ rdf.ID) bool {
			return emit(start, end)
		})
	})
	env.putVisited(seen, marked)
	env.putIDs(marked)
	return cont
}

func evalMod(env *pathEnv, p ModPath, s, o rdf.ID, emit func(s, o rdf.ID) bool) bool {
	switch p.Mod {
	case ModZeroOrOne:
		// Zero-length component.
		if !emitZeroLength(env, s, o, emit) {
			return false
		}
		// One-step component, skipping pairs the zero-length part already
		// produced (x -> x).
		return evalPath(env, p.Inner, s, o, func(a, b rdf.ID) bool {
			if a == b {
				return true
			}
			return emit(a, b)
		})
	case ModOneOrMore, ModZeroOrMore:
		includeZero := p.Mod == ModZeroOrMore
		switch {
		case s != rdf.NoID && o != rdf.NoID:
			// Both ends bound: at most one pair can come out, so either walk
			// direction is equivalent — pick the one whose first frontier is
			// smaller (index cardinalities).
			if closureBackwardCheaper(env, p.Inner, s, o) {
				return closure(env, p.Inner, o, s, includeZero, true, func(a, b rdf.ID) bool {
					return emit(b, a)
				})
			}
			return closure(env, p.Inner, s, o, includeZero, false, emit)
		case s != rdf.NoID:
			return closure(env, p.Inner, s, o, includeZero, false, emit)
		case o != rdf.NoID:
			// Walk backwards from the object.
			return closure(env, p.Inner, o, s, includeZero, true, func(a, b rdf.ID) bool {
				return emit(b, a)
			})
		default:
			// Both ends unbound: run a closure from every node. This is the
			// worst case a deadline must be able to interrupt, so poll the
			// checkpoint between per-start walks as well as inside them.
			for _, start := range env.g.NodeIDs() {
				if env.cancel.check() != nil {
					return false
				}
				if !closure(env, p.Inner, start, rdf.NoID, includeZero, false, emit) {
					return false
				}
			}
			return true
		}
	default:
		panic("sparql: unknown path modifier")
	}
}

// emitZeroLength emits the zero-length pairs for a `?` or `*` path given the
// endpoint bindings.
func emitZeroLength(env *pathEnv, s, o rdf.ID, emit func(s, o rdf.ID) bool) bool {
	switch {
	case s != rdf.NoID && o != rdf.NoID:
		if s == o {
			return emit(s, s)
		}
		return true
	case s != rdf.NoID:
		return emit(s, s)
	case o != rdf.NoID:
		return emit(o, o)
	default:
		for _, n := range env.g.NodeIDs() {
			if env.cancel.check() != nil {
				return false
			}
			if !emit(n, n) {
				return false
			}
		}
		return true
	}
}

// basePred unwraps chains of InvPath around a PredPath. ok is false for any
// other path shape; inverted reports whether the net orientation is
// reversed.
func basePred(p Path) (iri string, inverted bool, ok bool) {
	switch p := p.(type) {
	case PredPath:
		return p.IRI, false, true
	case InvPath:
		iri, inv, ok := basePred(p.Inner)
		return iri, !inv, ok
	}
	return "", false, false
}

// closureBackwardCheaper decides the walk direction for a doubly-bound
// closure: walk backward from o when o's first frontier is smaller than s's.
// Only simple (possibly inverted) predicate paths have usable cardinalities;
// anything else keeps the forward default.
func closureBackwardCheaper(env *pathEnv, inner Path, s, o rdf.ID) bool {
	iri, inverted, ok := basePred(inner)
	if !ok {
		return false
	}
	pid := env.predID(iri)
	if pid == rdf.NoID {
		return false
	}
	fromS, fromO := env.g.Count(s, pid, rdf.NoID), env.g.Count(rdf.NoID, pid, o)
	if inverted {
		fromS, fromO = env.g.Count(rdf.NoID, pid, s), env.g.Count(o, pid, rdf.NoID)
	}
	return fromO < fromS
}

// closure emits the transitive closure of the inner path from start. When
// backward is true the inner path edges are followed in reverse. Pairs
// (start, reached) are emitted once each; when other is non-NoID only the
// matching pair is emitted. includeZero adds the zero-length (start, start)
// pair up front (`*` semantics).
func closure(env *pathEnv, inner Path, start, other rdf.ID, includeZero, backward bool, emit func(s, o rdf.ID) bool) bool {
	if env.cancel.tripped() != nil {
		return false
	}
	set := env.closureSet(inner, start, backward)
	emittedStart := false
	if includeZero && (other == rdf.NoID || other == start) {
		emittedStart = true
		if !emit(start, start) {
			return false
		}
	}
	for _, to := range set.reached {
		if to == start {
			// The cycle back to the start, at its discovery position.
			if !emittedStart && (other == rdf.NoID || other == start) {
				emittedStart = true
				if !emit(start, start) {
					return false
				}
			}
			continue
		}
		if other == rdf.NoID || other == to {
			if !emit(start, to) {
				return false
			}
		}
	}
	return true
}

// closureSet returns the memoized closure of inner from start, running the
// BFS on a miss. A BFS interrupted by cancellation yields a partial set that
// is NOT memoized: the evaluation is about to fail with the context error,
// and a later evaluation must never replay truncated reachability as truth.
func (env *pathEnv) closureSet(inner Path, start rdf.ID, backward bool) *closureSet {
	key := closureKey{backward: backward, start: start}
	if iri, inverted, ok := basePred(inner); ok {
		key.path, key.simple, key.inverted = iri, true, inverted
	} else {
		key.path = pathString(inner)
	}
	if set, ok := env.memo[key]; ok {
		env.stats.MemoHits++
		return set
	}
	env.stats.MemoMisses++
	set, complete := env.runBFS(inner, start, backward)
	if complete {
		if env.memo == nil {
			env.memo = make(map[closureKey]*closureSet)
		}
		env.memo[key] = set
	}
	return set
}

// runBFS computes the full reachable set of inner from start in the given
// direction: over the index's adjacency slices when the inner path is a
// (possibly inverted) plain predicate (pid is then set), through the generic
// path evaluator otherwise — either way with a pooled bitset visited set and
// reusable frontiers. complete is false when the walk was interrupted by
// cancellation; the returned set is then partial and must not be memoized.
func (env *pathEnv) runBFS(inner Path, start rdf.ID, backward bool) (set *closureSet, complete bool) {
	pid := rdf.NoID
	useIn := backward
	if iri, inverted, ok := basePred(inner); ok {
		if pid = env.predID(iri); pid == rdf.NoID {
			return &closureSet{}, true
		}
		if inverted {
			useIn = !useIn
		}
	}

	visited := env.getVisited()
	frontier := append(env.getIDs(), start)
	next := env.getIDs()
	bitSet(visited, start)

	set = &closureSet{}
	complete = true
	cycled := false
	steps := int64(0)
	visit := func(to rdf.ID) {
		steps++
		if to == start {
			if !cycled {
				cycled = true
				set.reached = append(set.reached, start)
			}
			return
		}
		if bitGet(visited, to) {
			return
		}
		bitSet(visited, to)
		set.reached = append(set.reached, to)
		next = append(next, to)
	}
bfs:
	for len(frontier) > 0 {
		next = next[:0]
		for _, from := range frontier {
			if env.cancel.check() != nil {
				complete = false
				break bfs
			}
			switch {
			case pid != rdf.NoID && useIn:
				for _, to := range env.g.SubjectIDs(pid, from) {
					visit(to)
				}
			case pid != rdf.NoID:
				for _, to := range env.g.ObjectIDs(from, pid) {
					visit(to)
				}
			case backward:
				evalPath(env, inner, rdf.NoID, from, func(to, _ rdf.ID) bool {
					visit(to)
					return true
				})
			default:
				evalPath(env, inner, from, rdf.NoID, func(_, to rdf.ID) bool {
					visit(to)
					return true
				})
			}
		}
		frontier, next = next, frontier
	}
	env.stats.BFSSteps += steps

	bitClear(visited, start)
	env.putVisited(visited, set.reached)
	env.putIDs(frontier)
	env.putIDs(next)
	return set, complete
}

// Bitset helpers. Bit i represents dense term ID i; word 0 bit 0 (NoID) is
// never set.

func bitSet(b []uint64, id rdf.ID)      { b[id>>6] |= 1 << (id & 63) }
func bitClear(b []uint64, id rdf.ID)    { b[id>>6] &^= 1 << (id & 63) }
func bitGet(b []uint64, id rdf.ID) bool { return b[id>>6]&(1<<(id&63)) != 0 }

// getVisited pops (or allocates) a zeroed bitset sized for the graph's ID
// space. Buffers pop from a stack so nested closures never share one. What
// this evaluation returned sits above the stale bitsets earlier evaluations
// left, so a pop below the stale mark is a first use and is charged.
func (env *pathEnv) getVisited() []uint64 {
	words := int(env.g.MaxID())>>6 + 1
	var v []uint64
	if k := len(env.visitedPool); k > 0 {
		v = env.visitedPool[k-1]
		env.visitedPool = env.visitedPool[:k-1]
		if k > env.stale && len(v) >= words {
			return v
		}
		env.stale = min(env.stale, k-1)
	}
	env.stats.BitsetBytes += int64(words * 8)
	if len(v) >= words {
		return v
	}
	return make([]uint64, words)
}

// putVisited clears the bits recorded in marked and returns the bitset to
// the pool. Clearing by marked list is O(visited nodes), not O(ID space).
func (env *pathEnv) putVisited(v []uint64, marked []rdf.ID) {
	for _, id := range marked {
		bitClear(v, id)
	}
	env.visitedPool = append(env.visitedPool, v)
}

// getIDs pops (or allocates) an empty ID buffer for frontiers and mark
// lists.
func (env *pathEnv) getIDs() []rdf.ID {
	if k := len(env.idPool); k > 0 {
		v := env.idPool[k-1]
		env.idPool = env.idPool[:k-1]
		return v[:0]
	}
	return make([]rdf.ID, 0, 64)
}

func (env *pathEnv) putIDs(v []rdf.ID) {
	env.idPool = append(env.idPool, v)
}
