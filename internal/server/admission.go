// Deadline-aware, load-shedding execution. Every read route (POST
// /api/search, /api/sparql, /api/kb/run, GET /api/plans/{id}/rdf) runs
// under a context that expires at the configured query timeout (clients may
// shorten — never extend — it per request via X-Timeout-Ms): serveRead
// derives it, once, with execContext. An optional weighted admission gate
// bounds how much scan work runs concurrently on the routes wrapped in gated:
// requests over the limit wait in FIFO order for at most the configured
// queue wait, then are shed with 503 + Retry-After. The engine observes the
// same context cooperatively, so a deadline, a client disconnect or daemon
// shutdown stops the scan mid-flight instead of burning the worker pool on
// an answer nobody will read.
package server

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// StatusClientClosedRequest is the non-standard 499 status (nginx
// convention) recorded when the client went away before the response. The
// bytes never reach anyone; the value exists so the access log and metrics
// distinguish "client hung up" from a server-side failure.
const StatusClientClosedRequest = 499

// errShed reports that the admission gate turned a request away.
var errShed = errors.New("server overloaded: admission queue wait exceeded")

// ExecStats counts execution outcomes on the gated routes. Served in
// /api/stats (additive — the group only ever gains fields) and re-exported
// at scrape time as optimatch_exec_* in /metrics.
type ExecStats struct {
	// InFlight is the weighted units of scan work currently admitted.
	InFlight int64 `json:"inFlight"`
	// Cancelled counts executions stopped because the client disconnected
	// or the daemon began shutting down.
	Cancelled int64 `json:"cancelled"`
	// Deadline counts executions stopped at their deadline (504s).
	Deadline int64 `json:"deadline"`
	// Shed counts requests turned away by the admission gate (503s).
	Shed int64 `json:"shed"`
}

// execCounters holds the atomics behind ExecStats.
type execCounters struct {
	inFlight  atomic.Int64
	cancelled atomic.Int64
	deadline  atomic.Int64
	shed      atomic.Int64
}

func (c *execCounters) snapshot() ExecStats {
	return ExecStats{
		InFlight:  c.inFlight.Load(),
		Cancelled: c.cancelled.Load(),
		Deadline:  c.deadline.Load(),
		Shed:      c.shed.Load(),
	}
}

// semWaiter is one queued Acquire.
type semWaiter struct {
	n     int64
	ready chan struct{} // closed by Release when the weight is granted
}

// semaphore is a weighted FIFO semaphore (the x/sync shape, rebuilt on the
// stdlib because the repo takes no dependencies). FIFO matters: without it
// a stream of cheap requests can starve an admitted-but-waiting expensive
// one indefinitely.
type semaphore struct {
	size    int64
	mu      sync.Mutex
	cur     int64
	waiters list.List // of *semWaiter
}

func newSemaphore(n int64) *semaphore { return &semaphore{size: n} }

// Acquire blocks until n units are granted or ctx is done. Weights above
// the semaphore size are clamped to it, so an expensive route still runs
// (alone) under a small -max-inflight rather than deadlocking.
func (s *semaphore) Acquire(ctx context.Context, n int64) error {
	if n > s.size {
		n = s.size
	}
	s.mu.Lock()
	if s.size-s.cur >= n && s.waiters.Len() == 0 {
		s.cur += n
		s.mu.Unlock()
		return nil
	}
	w := &semWaiter{n: n, ready: make(chan struct{})}
	elem := s.waiters.PushBack(w)
	s.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		err := ctx.Err()
		s.mu.Lock()
		select {
		case <-w.ready:
			// Granted between ctx firing and taking the lock: keep the
			// grant and report success; the caller will Release normally.
			err = nil
		default:
			front := s.waiters.Front() == elem
			s.waiters.Remove(elem)
			if front {
				// The cancelled waiter may have been the only thing
				// blocking smaller waiters behind it.
				s.grantLocked()
			}
		}
		s.mu.Unlock()
		return err
	}
}

// Release returns n units and wakes whichever queued waiters now fit.
func (s *semaphore) Release(n int64) {
	if n > s.size {
		n = s.size
	}
	s.mu.Lock()
	s.cur -= n
	if s.cur < 0 {
		s.mu.Unlock()
		panic("server: semaphore released more than held")
	}
	s.grantLocked()
	s.mu.Unlock()
}

// grantLocked admits waiters from the front while capacity lasts.
func (s *semaphore) grantLocked() {
	for {
		front := s.waiters.Front()
		if front == nil {
			return
		}
		w := front.Value.(*semWaiter)
		if s.size-s.cur < w.n {
			return
		}
		s.cur += w.n
		s.waiters.Remove(front)
		close(w.ready)
	}
}

// admission is the configured gate: a shared weighted semaphore plus the
// bounded time a request may queue for a slot.
type admission struct {
	sem       *semaphore
	queueWait time.Duration
}

// execContext derives the context one read renders under: the
// request context (so client disconnects and shutdown propagate), bounded
// by the server's query timeout. A client may shorten the deadline with an
// X-Timeout-Ms header; a malformed or non-positive value is an error (the
// caller answers 400) rather than a silent fallback to the server cap, and
// values above the cap are clamped to it, so the flag stays the ceiling.
func (s *Server) execContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	d := s.queryTimeout
	if hdr := r.Header.Get("X-Timeout-Ms"); hdr != "" {
		ms, err := strconv.ParseInt(hdr, 10, 64)
		if err != nil || ms <= 0 {
			return nil, nil, fmt.Errorf("invalid X-Timeout-Ms %q: want a positive integer of milliseconds", hdr)
		}
		hd := time.Duration(math.MaxInt64) // ms counts that overflow a Duration clamp to the max
		if ms <= int64(hd/time.Millisecond) {
			hd = time.Duration(ms) * time.Millisecond
		}
		if d == 0 || hd < d {
			d = hd
		}
	}
	if d <= 0 {
		return r.Context(), func() {}, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// retryAfterHint renders the Retry-After value for a shed response: the
// configured queue-wait budget rounded up to whole seconds, floored at 1 —
// retrying sooner than the queue budget would just queue and shed again.
func retryAfterHint(queueWait time.Duration) string {
	secs := (queueWait + time.Second - 1) / time.Second
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(int64(secs), 10)
}

// gated wraps an exec handler with the admission gate. weight expresses
// relative cost (a kb/run scans every plan for every entry; a single search
// is one query), so under -max-inflight N a full scan consumes more of the
// budget than a point query.
func (s *Server) gated(weight int64, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.adm != nil {
			waitCtx, cancel := context.WithTimeout(r.Context(), s.adm.queueWait)
			err := s.adm.sem.Acquire(waitCtx, weight)
			cancel()
			if err != nil {
				if r.Context().Err() != nil {
					// The client gave up while queued — nothing to shed, no
					// one to answer. Record the 499 for the access log.
					s.exec.cancelled.Add(1)
					w.WriteHeader(StatusClientClosedRequest)
					return
				}
				s.exec.shed.Add(1)
				w.Header().Set("Retry-After", retryAfterHint(s.adm.queueWait))
				writeError(w, http.StatusServiceUnavailable, errShed)
				return
			}
			defer s.adm.sem.Release(weight)
		}
		s.exec.inFlight.Add(weight)
		defer s.exec.inFlight.Add(-weight)
		h(w, r)
	}
}

// execError writes the response for a failed render, mapping context errors
// to honest statuses:
//
//   - deadline exceeded  -> 504 Gateway Timeout
//   - daemon shutdown    -> 503 + Retry-After (come back after restart)
//   - client disconnect  -> 499 recorded for the log; no body — the
//     connection is gone
//
// Any other error gets the route's fallback status (422 for a malformed
// query, 500 for a scan or serialisation that broke).
func (s *Server) execError(w http.ResponseWriter, r *http.Request, err error, fallback int) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.exec.deadline.Add(1)
		writeError(w, http.StatusGatewayTimeout, fmt.Errorf("query deadline exceeded: %w", err))
	case errors.Is(err, context.Canceled):
		s.exec.cancelled.Add(1)
		switch {
		case s.baseCtx != nil && s.baseCtx.Err() != nil:
			// Shutdown cancelled the work, not the client: the connection
			// is still open, so say so and invite a retry elsewhere.
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("server shutting down"))
		case r.Context().Err() != nil:
			w.WriteHeader(StatusClientClosedRequest)
		default:
			writeError(w, http.StatusServiceUnavailable, err)
		}
	default:
		writeError(w, fallback, err)
	}
}
