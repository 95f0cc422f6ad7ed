package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"optimatch/internal/cache"
	"optimatch/internal/core"
	"optimatch/internal/kb"
	"optimatch/internal/obs"
	"optimatch/internal/server"
	"optimatch/internal/store"
)

// sysConfig is what differs between the systems a run opens; everything
// else is wired the way cmd/optimatchd wires it by default with -data.
type sysConfig struct {
	Dir          string
	KB           func() *kb.KnowledgeBase // default knowledge base of a fresh store
	CompactEvery int64
	Workers      int       // 0: GOMAXPROCS, as shipped; 1 for the reconciliation runs
	FS           *countFS  // counts what the store writes
	Rec          *recorder // nil: untraced
}

// system is one optimatchd, minus the listener: registry, engine
// instrumentation, a 64 MiB result cache shared by both tiers, automatic
// shard count, 30 s query timeout, admission off, access log to
// io.Discard, and a durable store with fsync per record.
type system struct {
	cfg     sysConfig
	st      *store.Store
	eng     *core.Engine
	cache   *cache.Cache
	handler http.Handler
	cancel  context.CancelFunc

	requests, bytes atomic.Int64 // answered by this system since it was opened
}

func openSystem(cfg sysConfig) (*system, error) {
	reg := obs.NewRegistry()
	engHooks := server.EngineInstrumentation(reg)
	storeHooks := server.StoreInstrumentation(reg)
	if cfg.Rec != nil {
		engHooks = cfg.Rec.engineHooks(engHooks)
		storeHooks = cfg.Rec.storeHooks(storeHooks)
	}
	resCache := cache.New(cache.Config{MaxBytes: 64 << 20})
	st, err := store.Open(cfg.Dir,
		store.WithEngineOptions(
			core.WithWorkers(cfg.Workers),
			core.WithPrefilter(true),
			core.WithShards(0),
			core.WithInstrumentation(engHooks),
			core.WithResultCache(resCache),
		),
		store.WithDefaultKB(cfg.KB()),
		store.WithAutoCompact(cfg.CompactEvery),
		store.WithInstrumentation(storeHooks),
		store.WithFS(cfg.FS),
	)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv := server.New(st.Engine(), st.KB(),
		server.WithLogger(obs.NewLogger(io.Discard, slog.LevelInfo, "text")),
		server.WithMetrics(reg),
		server.WithSlowThreshold(500*time.Millisecond),
		server.WithQueryTimeout(30*time.Second),
		server.WithAdmission(0, 100*time.Millisecond),
		server.WithBaseContext(ctx),
		server.WithBatchLimits(1024, 8<<20),
		server.WithResultCache(resCache),
		server.WithStore(st),
	)
	return &system{cfg: cfg, st: st, eng: st.Engine(), cache: resCache, handler: srv.Handler(), cancel: cancel}, nil
}

func (s *system) close() error {
	s.cancel()
	return s.st.Close()
}

// respWriter is the ResponseWriter the handler writes to: it counts and
// checksums the body as it passes and keeps nothing, unless the caller
// asked for the bytes.
type respWriter struct {
	hdr    http.Header
	status int
	n      int64
	crc    uint32
	keep   *bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.hdr }

func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *respWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.n += int64(len(p))
	w.crc = crc32.Update(w.crc, crc32.IEEETable, p)
	if w.keep != nil {
		w.keep.Write(p)
	}
	return len(p), nil
}

// response is what the client keeps of one exchange.
type response struct {
	Status int
	XCache string
	ETag   string
	CRC    uint32
	Bytes  int64
	Dur    time.Duration
	Body   []byte // only when asked for
}

// do sends one request through the handler in process and times it.
// Header pairs follow as key, value.
func (s *system) do(req request, keepBody bool, header ...string) response {
	r, err := http.NewRequest(req.Method, req.Path, strings.NewReader(req.Body))
	if err != nil {
		panic(fmt.Sprintf("bench: building %s %s: %v", req.Method, req.Path, err))
	}
	for i := 0; i+1 < len(header); i += 2 {
		r.Header.Set(header[i], header[i+1])
	}
	w := &respWriter{hdr: make(http.Header)}
	if keepBody {
		w.keep = new(bytes.Buffer)
	}
	start := time.Now()
	s.handler.ServeHTTP(w, r)
	d := time.Since(start)
	if w.status == 0 {
		w.status = http.StatusOK
	}
	s.requests.Add(1)
	s.bytes.Add(w.n)
	if s.cfg.Rec != nil {
		s.cfg.Rec.request("http."+req.Kind, start, d)
	}
	out := response{Status: w.status, XCache: w.hdr.Get("X-Cache"), ETag: w.hdr.Get("ETag"), CRC: w.crc, Bytes: w.n, Dur: d}
	if keepBody {
		out.Body = w.keep.Bytes()
	}
	return out
}

// tally counts operations attempted and failed. A failure is anything a
// correct server would not have done: see the fail_ratio definition in the
// README.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string // the first few, for the report
}

func (t *tally) attempt(ok bool, format string, args ...any) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if !ok {
		t.failed++
		if len(t.reasons) < 8 {
			t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// collector holds the samples of one repetition (or one set-up cycle) of
// one client. Latencies are in milliseconds.
type collector struct {
	OK      int // correct responses
	Reads   []float64
	Uploads []float64

	BatchPlans   int     // plans accepted by /api/plans:batch
	BatchSeconds float64 // time inside those requests
	ExplainBytes int64   // explain text accepted (uploads and batches)

	// For the server layer metrics.
	Hits, Misses, PostWrite []float64
	RDFReads, NotModified   int
}

// batchRate is plans per second inside the batch requests, in a group of
// its own when there were any.
func (c *collector) batchRate() []float64 {
	if c.BatchPlans == 0 {
		return nil
	}
	return []float64{float64(c.BatchPlans) / c.BatchSeconds}
}

func (c *collector) merge(o *collector) {
	c.OK += o.OK
	c.Reads = append(c.Reads, o.Reads...)
	c.Uploads = append(c.Uploads, o.Uploads...)
	c.BatchPlans += o.BatchPlans
	c.BatchSeconds += o.BatchSeconds
	c.ExplainBytes += o.ExplainBytes
	c.Hits = append(c.Hits, o.Hits...)
	c.Misses = append(c.Misses, o.Misses...)
	c.PostWrite = append(c.PostWrite, o.PostWrite...)
	c.RDFReads += o.RDFReads
	c.NotModified += o.NotModified
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// seen is what a client remembers of the last answer to a request: the
// data generation it was given at and the body's checksum.
type seen struct {
	gen  uint64
	crc  uint32
	etag string
}

// model is the set of plans the clients hold an acknowledgement for:
// uploaded (201) and not since deleted (200).
type model struct {
	mu      sync.Mutex
	present map[string]bool
	plans   int64 // acknowledged uploads
	bytes   int64 // their explain text
}

func newModel() *model { return &model{present: map[string]bool{}} }

func (m *model) add(p plan) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.present[p.ID] = true
	m.plans++
	m.bytes += int64(len(p.Text))
}

func (m *model) remove(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.present, id)
}

// accepted reports how many plans, and how many bytes of explain text, the
// current store has acknowledged.
func (m *model) accepted() (plans, bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.plans, m.bytes
}

func (m *model) snapshot() map[string]bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]bool, len(m.present))
	for id := range m.present {
		out[id] = true
	}
	return out
}

// client is one closed-loop caller: it sends the next request only after
// the previous one returned, checks every answer, and files the latency.
type client struct {
	sys   *system
	t     *tally
	model *model
	col   *collector
	last  map[uint64]seen // by request key
}

func newClient(sys *system, t *tally, m *model) *client {
	return &client{sys: sys, t: t, model: m, col: &collector{}, last: make(map[uint64]seen)}
}

func requestKey(req request) uint64 {
	h := fnv.New64a()
	io.WriteString(h, req.Path)
	h.Write([]byte{0})
	io.WriteString(h, req.Body)
	return h.Sum64()
}

// Cache expectations of a read.
const (
	wantBypass = "bypass" // sent with Cache-Control: no-cache
	wantMiss   = "miss"   // never sent before
	wantAny    = ""       // hit, miss or collapsed
)

// read sends a read request and checks status, X-Cache and — when no write
// moved the data generation while it ran — that the body equals the first
// answer to the same request at that generation. RDF reads replay the last
// ETag, so an unchanged plan set answers 304.
func (c *client) read(req request, want string) response {
	var header []string
	if want == wantBypass {
		header = append(header, "Cache-Control", "no-cache")
	}
	key := requestKey(req)
	prev, known := c.last[key]
	if req.Kind == "rdf" && known && want != wantBypass {
		header = append(header, "If-None-Match", prev.etag)
	}
	g0 := c.sys.eng.Generation()
	resp := c.sys.do(req, false, header...)
	stable := c.sys.eng.Generation() == g0

	ok := true
	switch {
	case resp.Status == http.StatusNotModified:
		ok = req.Kind == "rdf" && known && (!stable || prev.gen == g0)
		c.col.NotModified++
	case resp.Status != http.StatusOK:
		ok = false
	case want == wantAny:
		ok = resp.XCache == "hit" || resp.XCache == "miss" || resp.XCache == "collapsed"
	default:
		ok = resp.XCache == want
	}
	if ok && stable && resp.Status == http.StatusOK {
		if known && prev.gen == g0 {
			ok = prev.crc == resp.CRC
		} else {
			if known {
				c.col.PostWrite = append(c.col.PostWrite, ms(resp.Dur))
			}
			c.last[key] = seen{gen: g0, crc: resp.CRC, etag: resp.ETag}
		}
	}
	if !c.t.attempt(ok, "%s %s: status %d, X-Cache %q (want %q), crc %08x", req.Method, req.Path, resp.Status, resp.XCache, want, resp.CRC) {
		return resp
	}
	c.col.OK++
	c.col.Reads = append(c.col.Reads, ms(resp.Dur))
	if req.Kind == "rdf" {
		c.col.RDFReads++
	}
	switch resp.XCache {
	case "hit":
		c.col.Hits = append(c.col.Hits, ms(resp.Dur))
	case "miss":
		c.col.Misses = append(c.col.Misses, ms(resp.Dur))
	}
	return resp
}

// upload sends one explain file through POST /api/plans; 201 means parsed,
// loaded, journaled and fsynced.
func (c *client) upload(p plan) {
	resp := c.sys.do(request{Kind: "upload", Method: "POST", Path: "/api/plans", Body: p.Text}, false)
	if !c.t.attempt(resp.Status == http.StatusCreated, "POST /api/plans %s: status %d", p.ID, resp.Status) {
		return
	}
	c.col.OK++
	c.col.Uploads = append(c.col.Uploads, ms(resp.Dur))
	c.col.ExplainBytes += int64(len(p.Text))
	c.model.add(p)
}

// batch sends plans through POST /api/plans:batch and requires every
// record to be accepted.
func (c *client) batch(plans []plan) {
	resp := c.sys.do(request{Kind: "batch", Method: "POST", Path: "/api/plans:batch", Body: ndjson(plans)}, true)
	var body struct {
		Accepted int `json:"accepted"`
	}
	ok := resp.Status == http.StatusCreated && json.Unmarshal(resp.Body, &body) == nil && body.Accepted == len(plans)
	if !c.t.attempt(ok, "POST /api/plans:batch of %d: status %d, accepted %d", len(plans), resp.Status, body.Accepted) {
		return
	}
	c.col.OK++
	c.col.BatchPlans += len(plans)
	c.col.BatchSeconds += resp.Dur.Seconds()
	for _, p := range plans {
		c.col.ExplainBytes += int64(len(p.Text))
		c.model.add(p)
	}
}

func (c *client) remove(id string) {
	resp := c.sys.do(request{Kind: "delete", Method: "DELETE", Path: "/api/plans/" + id}, false)
	if c.t.attempt(resp.Status == http.StatusOK, "DELETE /api/plans/%s: status %d", id, resp.Status) {
		c.col.OK++
		c.model.remove(id)
	}
}

// report is the part of one kb/run plan report the truth check reads.
type report struct {
	Plan            string `json:"plan"`
	Recommendations []struct {
		Entry string `json:"entry"`
	} `json:"recommendations"`
}

// checkTruth runs one uncached kb/run and requires that the plans
// recommended for entries A–D and G are exactly the plans the generator
// injected those patterns into, over the plans currently loaded: precision
// and recall both 100 %. It returns the body's checksum.
func (c *client) checkTruth(in *inputs) uint32 {
	resp := c.sys.do(request{Kind: "kbrun", Method: "POST", Path: "/api/kb/run"}, true, "Cache-Control", "no-cache")
	var reports []report
	if !c.t.attempt(resp.Status == http.StatusOK && json.Unmarshal(resp.Body, &reports) == nil,
		"kb/run for the truth check: status %d", resp.Status) {
		return 0
	}
	c.t.attempt(len(reports) == c.sys.eng.NumPlans(), "kb/run reported %d plans, %d loaded", len(reports), c.sys.eng.NumPlans())
	for _, rep := range reports {
		got := map[string]bool{}
		for _, r := range rep.Recommendations {
			got[r.Entry] = true
		}
		wrong := ""
		for key, entry := range truthEntries {
			if got[entry] != in.Truth.Has(key, rep.Plan) {
				wrong = entry
			}
		}
		c.t.attempt(wrong == "", "plan %s, entry %s: recommended %v, injected %v", rep.Plan, wrong, got[wrong], !got[wrong])
	}
	return resp.CRC
}

// planIDs lists the loaded plans through GET /api/plans.
func (c *client) planIDs() map[string]bool {
	resp := c.sys.do(request{Kind: "list", Method: "GET", Path: "/api/plans"}, true)
	var list []struct {
		ID string `json:"id"`
	}
	out := map[string]bool{}
	if c.t.attempt(resp.Status == http.StatusOK && json.Unmarshal(resp.Body, &list) == nil, "GET /api/plans: status %d", resp.Status) {
		for _, p := range list {
			out[p.ID] = true
		}
	}
	return out
}
