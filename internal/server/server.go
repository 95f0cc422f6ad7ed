// Package server exposes the OptImatch engine over HTTP, mirroring the
// paper's client/server architecture (Figure 4: a web-based GUI in front of
// the transformation engine; Section 3.2.1 explicitly discusses
// client-server communication). The API is JSON-first:
//
//	GET    /healthz                  liveness
//	GET    /readyz                   readiness: ok | degraded | closed (store write path)
//	GET    /api/plans                loaded plans (id, operators, total cost)
//	POST   /api/plans                upload an explain file (text/plain body)
//	POST   /api/plans:batch          batch upload (NDJSON, per-record outcomes)
//	DELETE /api/plans/{id}           unload a plan (404 if unknown)
//	GET    /api/plans/{id}/render    the ASCII plan graph
//	GET    /api/plans/{id}/rdf       the plan's RDF as N-Triples
//	POST   /api/search               match a pattern (JSON body, Figure 5 form)
//	POST   /api/sparql               run a raw SPARQL query (text body)
//	GET    /api/kb                   knowledge-base entries
//	POST   /api/kb/entries           add an entry {pattern, recommendations}
//	DELETE /api/kb/entries/{name}    remove an entry (404 if unknown)
//	POST   /api/kb/run               scan all plans, ranked recommendations
//	POST   /api/admin/compact        fold the durable store's WAL into a snapshot
//	POST   /api/admin/reopen         compact from memory (allowed while degraded), leave degraded mode
//
// The four read-mostly routes (search, sparql, kb/run, rdf) are descriptors
// run by one function, serveRead: see cache.go. A search or SPARQL answer
// whose body would be over 16 MiB is not sent but answered 422 (encode.go).
//
// Every plan upload/deletion and knowledge-base mutation goes through one
// store.Store: the durable one given with WithStore, so the served state
// survives a restart, or else a store.Memory over the engine and knowledge
// base passed to New — the same mutators with no journal. Only /metrics asks
// which it is (optimatch_store_* series need a durable store); compaction and
// reopen answer 501 in memory. If a durable store degrades (a WAL append or
// compaction failed), writes answer 503 with Retry-After while reads and cache
// hits keep serving; GET /readyz reports the state and POST /api/admin/reopen
// recovers once the disk is healthy again.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"time"

	"optimatch/internal/cache"
	"optimatch/internal/core"
	"optimatch/internal/kb"
	"optimatch/internal/obs"
	"optimatch/internal/pattern"
	"optimatch/internal/qep"
	"optimatch/internal/rdf"
	"optimatch/internal/sparql"
	"optimatch/internal/store"
)

// maxBodyBytes bounds uploaded explain files and queries: a larger body is
// refused with 413 Request Entity Too Large. /api/sparql reads no more than
// sparql.MaxQueryBytes, and a batch no more than its own bound (batch.go).
const maxBodyBytes = 16 << 20

// Server wires an engine and a knowledge base behind an http.Handler.
type Server struct {
	eng *core.Engine
	kb  *kb.KnowledgeBase // guards itself; scans that outlive a call work on a kb.Snapshot
	st  *store.Store      // every mutation goes through it: WithStore's, or a store.Memory

	log     *slog.Logger  // nil: no access logging
	metrics *obs.Registry // nil: no /metrics endpoint
	slow    time.Duration // 0: no slow-request log line
	maxBody int64         // maxBodyBytes; package tests set it smaller

	queryTimeout time.Duration   // 0: engine executions run without a deadline
	adm          *admission      // nil: no admission gate
	baseCtx      context.Context // nil: shutdown indistinguishable from disconnect
	exec         execCounters
	cache        *cache.Cache // nil: responses render per request (see cache.go)
	epoch        uint64       // this process's part of every ETag (see planETag)

	batchMaxRecords int   // NDJSON records per batch (see batch.go)
	batchMaxBytes   int64 // request-body bytes per batch
	batch           batchCounters
}

// Option configures a Server.
type Option func(*Server)

// WithStore routes every mutation through the durable store instead of an
// in-memory one. The engine and knowledge base passed to New must be the
// store's own (store.Engine, store.KB) so that served and journaled state are
// one and the same.
func WithStore(st *store.Store) Option {
	return func(s *Server) { s.st = st }
}

// WithLogger enables the structured access log (one line per request,
// tagged with the request ID) on the given logger.
func WithLogger(log *slog.Logger) Option {
	return func(s *Server) { s.log = log }
}

// WithMetrics serves the registry at GET /metrics and instruments every
// route with request counters and latency histograms. The registry is
// usually the same one wired into the engine via EngineInstrumentation and
// the store via StoreInstrumentation, so one scrape covers every layer.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Server) { s.metrics = reg }
}

// WithSlowThreshold logs a WARN line for any request that takes at least d
// (requires WithLogger; 0 disables).
func WithSlowThreshold(d time.Duration) Option {
	return func(s *Server) { s.slow = d }
}

// WithQueryTimeout bounds every read (search, SPARQL, kb/run, plan RDF)
// to d. Reads that hit the deadline return 504 Gateway Timeout. A
// client can shorten — never extend — the deadline per request with an
// X-Timeout-Ms header. 0 disables the deadline.
func WithQueryTimeout(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.queryTimeout = d
		}
	}
}

// WithAdmission caps concurrently admitted scan work at maxInflight
// weighted units (search and SPARQL cost 1, a kb/run full scan 2).
// Requests over the cap wait FIFO for at most queueWait, then are shed
// with 503 + Retry-After. maxInflight <= 0 disables the gate.
func WithAdmission(maxInflight int, queueWait time.Duration) Option {
	return func(s *Server) {
		if maxInflight <= 0 {
			return
		}
		if queueWait <= 0 {
			queueWait = time.Nanosecond // queue disabled: shed immediately
		}
		s.adm = &admission{sem: newSemaphore(int64(maxInflight)), queueWait: queueWait}
	}
}

// WithBaseContext tells the server which context its http.Server derives
// request contexts from (wire the same context into
// http.Server.BaseContext). When engine work is cancelled, the server
// checks this context to tell daemon shutdown (503 + Retry-After, the
// connection is still open) apart from a client disconnect (499, nobody is
// listening).
func WithBaseContext(ctx context.Context) Option {
	return func(s *Server) { s.baseCtx = ctx }
}

// New returns a server over the given engine and knowledge base, mutated
// through a store.Memory over the two unless WithStore names the durable
// store they belong to. A nil knowledge base starts with the canonical
// expert patterns.
func New(eng *core.Engine, base *kb.KnowledgeBase, opts ...Option) *Server {
	if base == nil {
		base = kb.MustCanonical()
	}
	s := &Server{
		eng: eng, kb: base, st: store.Memory(eng, base), maxBody: maxBodyBytes,
		epoch:           rand.Uint64(),
		batchMaxRecords: defaultBatchMaxRecords,
		batchMaxBytes:   defaultBatchMaxBytes,
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /api/plans", s.handleListPlans)
	mux.HandleFunc("POST /api/plans", s.handleUploadPlan)
	// Batch ingest runs under the admission gate at the weight of a full
	// scan: one batch can move as much data as many single uploads.
	mux.HandleFunc("POST /api/plans:batch", s.gated(2, s.handleBatchUpload))
	mux.HandleFunc("DELETE /api/plans/{id}", s.handleDeletePlan)
	mux.HandleFunc("GET /api/plans/{id}/render", s.handleRenderPlan)
	// The three read routes that scan share the admission gate, with a full
	// knowledge-base scan weighing twice a point query; /rdf is ungated.
	mux.HandleFunc("GET /api/plans/{id}/rdf", s.serveRead(s.planRDFRoute()))
	mux.HandleFunc("POST /api/search", s.gated(1, s.serveRead(s.searchRoute())))
	mux.HandleFunc("POST /api/sparql", s.gated(1, s.serveRead(s.sparqlRoute())))
	mux.HandleFunc("GET /api/kb", s.handleListKB)
	mux.HandleFunc("POST /api/kb/entries", s.handleAddEntry)
	mux.HandleFunc("DELETE /api/kb/entries/{name}", s.handleDeleteEntry)
	mux.HandleFunc("POST /api/kb/run", s.gated(2, s.serveRead(s.runKBRoute())))
	mux.HandleFunc("POST /api/admin/compact", s.handleCompact)
	mux.HandleFunc("POST /api/admin/reopen", s.handleReopen)
	if s.metrics != nil {
		mux.Handle("GET /metrics", s.metrics.Handler())
		s.registerStateMetrics()
	}
	return s.withObservability(mux)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	var buf bytes.Buffer
	if err := encodeJSON(&buf, v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes()) // network write errors are the client's problem
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// readBody reads the request body under limit and answers a failure itself
// (ok is false): 413 for an oversized body, 400 for an unreadable one. The
// real ResponseWriter goes to MaxBytesReader so oversized requests also close
// the connection instead of leaving the unread tail to stall keep-alive.
// A body of known length within limit is read into one buffer of that length
// (a server's request body ends there: a shorter one is an error); any other
// is read as io.ReadAll reads, growing from 512 bytes by doubling.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) (body []byte, ok bool) {
	var err error
	if n := r.ContentLength; n >= 0 && n <= limit {
		body = make([]byte, n)
		_, err = io.ReadFull(http.MaxBytesReader(w, r.Body, limit), body)
	} else {
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	}
	if err == nil {
		return body, true
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, fmt.Errorf("reading request body: %w", err))
	return nil, false
}

// planInfo is the list representation of a loaded plan.
type planInfo struct {
	ID        string  `json:"id"`
	Operators int     `json:"operators"`
	TotalCost float64 `json:"totalCost"`
	Statement string  `json:"statement,omitempty"`
}

func (s *Server) handleListPlans(w http.ResponseWriter, _ *http.Request) {
	plans := s.eng.Plans()
	out := make([]planInfo, 0, len(plans))
	for _, p := range plans {
		out = append(out, planInfo{ID: p.ID, Operators: p.NumOps(), TotalCost: p.TotalCost, Statement: p.Statement})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleUploadPlan(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, s.maxBody)
	if !ok {
		return
	}
	p, err := s.st.AddPlan(string(body))
	if err != nil {
		// A duplicate ID is a conflict with served state, not a malformed
		// plan: 409 lets idempotent re-uploads (the optimatchd -load path)
		// distinguish "already there" from "rejected".
		if errors.Is(err, core.ErrDuplicatePlan) {
			writeError(w, http.StatusConflict, err)
			return
		}
		s.writeStoreError(w, err, http.StatusUnprocessableEntity)
		return
	}
	writeJSON(w, http.StatusCreated, planInfo{ID: p.ID, Operators: p.NumOps(), TotalCost: p.TotalCost})
}

func (s *Server) handleDeletePlan(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ok, err := s.st.RemovePlan(id)
	if err != nil {
		s.writeStoreError(w, err, http.StatusInternalServerError)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("plan %q not loaded", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

func (s *Server) plan(w http.ResponseWriter, r *http.Request) *qep.Plan {
	id := r.PathValue("id")
	p := s.eng.Plan(id)
	if p == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("plan %q not loaded", id))
	}
	return p
}

func (s *Server) handleRenderPlan(w http.ResponseWriter, r *http.Request) {
	p := s.plan(w, r)
	if p == nil {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, qep.Render(p))
}

// planRDFRoute serves the engine's own transformed graph: no O(plan)
// re-transform per GET, and the bytes are exactly the graph matches run
// against (a fresh Transform could differ in blank-node labels).
func (s *Server) planRDFRoute() readRoute {
	return readRoute{
		name: "http.rdf", contentType: "application/n-triples",
		parseStatus: http.StatusNotFound, fallback: http.StatusInternalServerError,
		validator: s.planETag,
		parse: func(r *http.Request, _ []byte) (string, renderFunc, error) {
			id := r.PathValue("id")
			res := s.eng.Result(id)
			if res == nil {
				return "", nil, fmt.Errorf("plan %q not loaded", id)
			}
			return id, func(context.Context) ([]byte, error) {
				return rdf.AppendNTriples(nil, res.Graph), nil
			}, nil
		},
	}
}

// searchRoute keys a search on the canonical pattern document — the parsed
// and validated pattern marshalled again — so whitespace, key order, number
// spelling and an omitted vs. empty planDetails share one entry, and a hit
// never compiles: FindPattern does that inside the render. The echoed name is
// part of the document, so it needs no key part of its own.
func (s *Server) searchRoute() readRoute {
	return readRoute{
		name: "http.search", contentType: "application/json", maxBody: s.maxBody,
		parseStatus: http.StatusUnprocessableEntity, fallback: http.StatusUnprocessableEntity,
		parse: func(_ *http.Request, body []byte) (string, renderFunc, error) {
			p, err := pattern.FromJSON(body)
			if err != nil {
				return "", nil, err
			}
			canon, err := json.Marshal(p)
			if err != nil {
				return "", nil, err
			}
			return string(canon), func(ctx context.Context) ([]byte, error) {
				matches, err := s.eng.FindPattern(ctx, p)
				if err != nil {
					return nil, err
				}
				return renderBody(func(dst []byte) ([]byte, error) {
					return appendMatchBody(dst, matches, &p.Name, maxAnswerBytes)
				})
			}, nil
		},
	}
}

// sparqlRoute keys a query on its canonical text — the parsed query printed
// again — so prefixes, keyword case, whitespace, comments and $x for ?x share
// one entry, and a query Parse refuses (a syntax error, an empty body, a shape
// it cannot answer) answers 400 before the cache is asked. A query is text
// someone typed: the route reads at most sparql.MaxQueryBytes of it, 413 past.
func (s *Server) sparqlRoute() readRoute {
	return readRoute{
		name: "http.sparql", contentType: "application/json", maxBody: min(s.maxBody, sparql.MaxQueryBytes),
		parseStatus: http.StatusBadRequest, fallback: http.StatusUnprocessableEntity,
		parse: func(_ *http.Request, body []byte) (string, renderFunc, error) {
			q, err := sparql.Parse(string(body))
			if err != nil {
				return "", nil, err
			}
			return q.String(), func(ctx context.Context) ([]byte, error) {
				matches, err := s.eng.FindSPARQL(ctx, q)
				if err != nil {
					return nil, err
				}
				return renderBody(func(dst []byte) ([]byte, error) {
					return appendMatchBody(dst, matches, nil, maxAnswerBytes)
				})
			}, nil
		},
	}
}

// entryInfo is the list representation of a knowledge-base entry.
type entryInfo struct {
	Name            string `json:"name"`
	Description     string `json:"description,omitempty"`
	Recommendations int    `json:"recommendations"`
}

func (s *Server) handleListKB(w http.ResponseWriter, _ *http.Request) {
	entries := s.kb.Entries()
	out := make([]entryInfo, 0, len(entries))
	for _, e := range entries {
		out = append(out, entryInfo{Name: e.Name, Description: e.Description, Recommendations: len(e.Recommendations)})
	}
	writeJSON(w, http.StatusOK, out)
}

// addEntryRequest is the POST /api/kb/entries body.
type addEntryRequest struct {
	Pattern         *pattern.Pattern    `json:"pattern"`
	Recommendations []kb.Recommendation `json:"recommendations"`
}

func (s *Server) handleAddEntry(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, s.maxBody)
	if !ok {
		return
	}
	var req addEntryRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding entry: %w", err))
		return
	}
	if req.Pattern == nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("entry needs a pattern"))
		return
	}
	entry, err := s.st.AddEntry(req.Pattern, req.Recommendations...)
	if err != nil {
		s.writeStoreError(w, err, http.StatusUnprocessableEntity)
		return
	}
	writeJSON(w, http.StatusCreated, entryInfo{Name: entry.Name, Description: entry.Description, Recommendations: len(entry.Recommendations)})
}

func (s *Server) handleDeleteEntry(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ok, err := s.st.RemoveEntry(name)
	if err != nil {
		s.writeStoreError(w, err, http.StatusInternalServerError)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("kb entry %q not found", name))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

func (s *Server) runKBRoute() readRoute {
	return readRoute{
		name: "http.kbrun", contentType: "application/json",
		fallback: http.StatusInternalServerError,
		parse: func(*http.Request, []byte) (string, renderFunc, error) {
			// Scan a point-in-time snapshot: the entry list is fixed here and
			// its cache key pins it, so a concurrent POST /api/kb/entries
			// changes the key rather than racing the scan.
			base := s.kb.Snapshot()
			return base.CacheKey(), func(ctx context.Context) ([]byte, error) {
				reports, err := s.eng.RunKB(ctx, base)
				if err != nil {
					return nil, err
				}
				return renderBody(func(dst []byte) ([]byte, error) { return appendReportBody(dst, reports) })
			}, nil
		},
	}
}

func (s *Server) handleCompact(w http.ResponseWriter, _ *http.Request) {
	if err := s.st.Compact(); err != nil {
		s.writeStoreError(w, err, http.StatusInternalServerError)
		return
	}
	st := s.st.Stats()
	writeJSON(w, http.StatusOK, st)
}
