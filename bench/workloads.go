package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"optimatch/internal/kb"
)

// mix is one workload: a traffic mix. The four below are the benchmark's fixed
// set; later changes cite them by name.
type mix struct {
	Name         string
	Clients      int // closed-loop callers, each with its own seeded stream
	KB           func() *kb.KnowledgeBase
	CompactEvery int64
	NoCache      bool           // every read is sent with Cache-Control: no-cache
	Ops          map[string]int // requests per repetition, by kind (for the env block)

	// warm sends each distinct request of the mix once. It is the last
	// step of set-up: parse-once cache, CSR snapshots and heap are in
	// steady state when it returns.
	warm func(c *client)
	// rep runs one repetition, one goroutine per client.
	rep func(cs []*client)
	// after runs untimed checks at the end of a repetition.
	after func(c *client)
}

var workloadNames = []string{"kb_scan_cold", "search_adhoc", "ingest_durable", "serve_mixed"}

var kbRun = request{Kind: "kbrun", Method: "POST", Path: "/api/kb/run"}

func rdfRequest(id string) request {
	return request{Kind: "rdf", Method: "GET", Path: "/api/plans/" + id + "/rdf"}
}

func newMix(name string, in *inputs, z sizes) (*mix, error) {
	switch name {
	case "kb_scan_cold":
		// The paper's Figure 8/11 measurement: the whole knowledge base
		// against every resident plan, nothing cached. Almost all time is
		// SPARQL evaluation, the prefilter and recommendation tagging.
		return &mix{
			Name: name, Clients: 1, KB: scanKB, CompactEvery: 1024, NoCache: true,
			Ops:  map[string]int{"kbrun": z.KBScansPerRep},
			warm: func(c *client) { c.read(kbRun, wantBypass) },
			rep: func(cs []*client) {
				for i := 0; i < z.KBScansPerRep; i++ {
					cs[0].read(kbRun, wantBypass)
				}
			},
		}, nil

	case "search_adhoc":
		// One query over many plans: the prefilter rejects most plans, so
		// pattern compilation, SPARQL parsing, path closure and the JSON
		// encoding of large results carry the weight a KB scan hides.
		rng := rand.New(rand.NewSource(in.Seed + 3))
		pass := func(c *client, pick func(n int) int) {
			for _, slot := range in.Deck {
				c.read(slot[pick(len(slot))], wantBypass)
			}
		}
		return &mix{
			Name: name, Clients: 1, KB: kb.MustExtended, CompactEvery: 1024, NoCache: true,
			Ops:  map[string]int{"search": 7 * z.DeckCycles, "sparql": 5 * z.DeckCycles},
			warm: func(c *client) { pass(c, func(int) int { return 0 }) },
			rep: func(cs []*client) {
				for i := 0; i < z.DeckCycles; i++ {
					pass(cs[0], rng.Intn)
				}
			},
		}, nil

	case "ingest_durable":
		// The write side of the layers the scans read. The resident window
		// slides over a ring of plans: each repetition uploads the plans
		// outside the window and deletes the oldest inside it, so the
		// resident count returns to where it started.
		n := z.ingestPlans()
		if z.Churn != n || n > z.Resident || int64(z.IngestBatches+z.IngestSingles+n) != z.CompactEvery {
			return nil, fmt.Errorf("bench: ingest sizes do not close: churn %d, plans per repetition %d, resident %d, compact every %d",
				z.Churn, n, z.Resident, z.CompactEvery)
		}
		ring := append(append([]plan(nil), in.Resident...), in.Churn...)
		head := 0 // ring index of the oldest resident plan
		rng := rand.New(rand.NewSource(in.Seed + 4))
		return &mix{
			Name: name, Clients: 1, KB: kb.MustExtended, CompactEvery: z.CompactEvery,
			Ops:  map[string]int{"batch": z.IngestBatches, "upload": z.IngestSingles, "rdf": n, "delete": n},
			warm: func(c *client) { c.read(kbRun, wantBypass) },
			rep: func(cs []*client) {
				c := cs[0]
				ups := make([]plan, n)
				for i := range ups {
					ups[i] = ring[(head+z.Resident+i)%len(ring)]
				}
				steps := make([]byte, 0, z.IngestBatches+z.IngestSingles+n)
				for i := 0; i < z.IngestBatches; i++ {
					steps = append(steps, 'b')
				}
				for i := 0; i < z.IngestSingles; i++ {
					steps = append(steps, 's')
				}
				for i := 0; i < n; i++ {
					steps = append(steps, 'd')
				}
				rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
				for _, step := range steps {
					switch step {
					case 'b':
						c.batch(ups[:z.IngestBatchSize])
						for _, p := range ups[:z.IngestBatchSize] {
							c.read(rdfRequest(p.ID), wantMiss) // read your writes
						}
						ups = ups[z.IngestBatchSize:]
					case 's':
						c.upload(ups[0])
						c.read(rdfRequest(ups[0].ID), wantMiss)
						ups = ups[1:]
					case 'd':
						c.remove(ring[head].ID) // oldest first
						head = (head + 1) % len(ring)
					}
				}
			},
		}, nil

	case "serve_mixed":
		// Reads beside writes, store and cache live: the only mix in which
		// cache hits, misses, collapsed flights, 304s, generation
		// invalidation, shard locks and WAL fsync interleave.
		clients := min(runtime.GOMAXPROCS(0), 4)
		per := len(in.Churn) / clients
		if per == 0 || z.MixedWrites == 0 || z.MixedFresh == 0 || z.MixedWrites+z.MixedFresh > z.MixedOps {
			return nil, fmt.Errorf("bench: serve_mixed sizes do not close: %d churn plans for %d clients", len(in.Churn), clients)
		}
		// Each client walks a fixed schedule: writes and never-sent queries
		// at evenly spaced positions (the clients' writes offset against each
		// other), the hot deck in between, cycled in a seeded order. Random
		// picks would make the number of misses a write causes — the cost
		// that sets this workload's throughput — a matter of luck. So would
		// clients that drift apart: which hot keys are read between two
		// writes decides how many scans execute. The clients therefore meet
		// at every position where one of them writes; the write then runs
		// beside the others' reads.
		type state struct {
			steps  []byte
			order  []int  // the client's walk through the hot deck
			next   int    // position in order
			own    []plan // the plans this client uploads and deletes again
			cur    int
			up     bool
			fresh  int
			client int
		}
		states := make([]*state, clients)
		meet := make([]bool, z.MixedOps) // positions at which some client writes
		gate := newBarrier(clients)
		for i := range states {
			s := &state{
				steps:  bytes.Repeat([]byte{'h'}, z.MixedOps),
				order:  rand.New(rand.NewSource(in.Seed + 10 + int64(i))).Perm(len(in.Hot)),
				own:    in.Churn[i*per : (i+1)*per],
				client: i,
			}
			place := func(kind byte, count, offset int) {
				for k := 0; k < count; k++ {
					pos := (k*z.MixedOps/count + offset) % z.MixedOps
					for s.steps[pos] != 'h' {
						pos = (pos + 1) % z.MixedOps
					}
					s.steps[pos] = kind
				}
			}
			place('w', z.MixedWrites, i*z.MixedOps/(z.MixedWrites*clients))
			place('f', z.MixedFresh, 1)
			for pos, step := range s.steps {
				meet[pos] = meet[pos] || step == 'w'
			}
			states[i] = s
		}
		one := func(c *client, s *state) {
			for pos, step := range s.steps {
				if meet[pos] {
					gate.wait()
				}
				switch step {
				case 'w': // uploads and deletes alternate; each bumps the generation
					if s.up {
						c.remove(s.own[s.cur].ID)
						s.cur = (s.cur + 1) % len(s.own)
					} else {
						c.upload(s.own[s.cur])
					}
					s.up = !s.up
				case 'f':
					c.read(fresh(s.client, s.fresh), wantMiss)
					s.fresh++
				case 'h':
					c.read(in.Hot[s.order[s.next]], wantAny)
					s.next = (s.next + 1) % len(s.order)
				}
			}
		}
		return &mix{
			Name: name, Clients: clients, KB: kb.MustExtended, CompactEvery: 1024,
			Ops: map[string]int{"hot": clients * (z.MixedOps - z.MixedWrites - z.MixedFresh), "fresh": clients * z.MixedFresh, "write": clients * z.MixedWrites},
			warm: func(c *client) {
				for _, req := range in.Hot {
					c.read(req, wantAny)
				}
			},
			rep: func(cs []*client) {
				var wg sync.WaitGroup
				for i, c := range cs {
					wg.Add(1)
					go func(c *client, s *state) {
						defer wg.Done()
						one(c, s)
					}(c, states[i])
				}
				wg.Wait()
			},
			// With the clients quiet, every hot request is answered from the
			// cache and again with no-cache; read compares the two bodies.
			after: func(c *client) {
				for _, req := range in.Hot {
					c.read(req, wantAny)
					c.read(req, wantBypass)
				}
			},
		}, nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q (have %v)", name, workloadNames)
}

// barrier lets n goroutines meet again and again: wait returns when all n
// have called it.
type barrier struct {
	mu      sync.Mutex
	all     *sync.Cond
	n       int
	waiting int
	round   int
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.all = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	round := b.round
	if b.waiting++; b.waiting == b.n {
		b.waiting, b.round = 0, b.round+1
		b.all.Broadcast()
		return
	}
	for round == b.round {
		b.all.Wait()
	}
}
