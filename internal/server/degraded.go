// Degraded-mode handling: when the durable store observes a disk failure
// it stops accepting writes (store.ErrDegraded) while reads stay correct.
// The server keeps the distinction visible: the write path answers 503
// with Retry-After (the client did nothing wrong, retry after the operator
// or a reopen fixes the disk), GET /readyz reports the state machine for
// load balancers and probes, and POST /api/admin/reopen drives the
// recovery transition.
package server

import (
	"errors"
	"net/http"

	"optimatch/internal/store"
)

// degradedRetryAfter is the Retry-After value on writes rejected while the
// store is degraded. Recovery needs an operator (or an automated reopen)
// to fix the disk, so the hint is a polling interval, not an estimate.
const degradedRetryAfter = "10"

// errNotDurable is what a 501 says: compaction and reopen need the daemon's
// durable store.
var errNotDurable = errors.New("no durable store configured (start optimatchd with -data)")

// writeStoreError maps a failed store call to its status: a degraded
// store is an explicit 503 + Retry-After (the server is up, the disk is
// not), and that includes the persistence failure that just *caused* the
// degradation — the client's write did not commit and retrying after a
// reopen is the correct move either way. Persistence failures that left
// the store writable and a closed store are 500s, a memory store asked to
// compact or reopen is a 501, and a mutation whose journal record would pass
// the store's size limit is the client's 413, whatever route sent it; anything
// else is the caller's fallback (typically a 4xx validation status). Every 503
// carries Retry-After.
func (s *Server) writeStoreError(w http.ResponseWriter, err error, fallback int) {
	status := fallback
	switch {
	case errors.Is(err, store.ErrRecordTooLarge):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, store.ErrNotDurable):
		status, err = http.StatusNotImplemented, errNotDurable
	case errors.Is(err, store.ErrDegraded),
		errors.Is(err, store.ErrPersist) && s.st.Health().State == store.HealthDegraded:
		status = http.StatusServiceUnavailable
	case errors.Is(err, store.ErrPersist) || errors.Is(err, store.ErrClosed):
		status = http.StatusInternalServerError
	}
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", degradedRetryAfter)
	}
	writeError(w, status, err)
}

// readyzBody is the GET /readyz response.
type readyzBody struct {
	Status string `json:"status"` // ok | degraded | closed
	Reason string `json:"reason,omitempty"`
}

// handleReadyz reports write-path readiness, distinct from /healthz
// liveness: a degraded daemon is alive (reads and cached responses still
// serve) but not ready for traffic that mutates state. Degraded and closed
// states answer 503 so load balancers drain writes without killing the
// process. A memory store is ok until closed.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	h := s.st.Health()
	status := http.StatusOK
	if h.State != store.HealthOK {
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", degradedRetryAfter)
	}
	writeJSON(w, status, readyzBody{Status: h.State, Reason: h.Reason})
}

// reopenBody is the POST /api/admin/reopen response.
type reopenBody struct {
	Health store.Health `json:"health"`
	Stats  store.Stats  `json:"stats"`
}

// handleReopen repairs a degraded store by compacting it from memory — a
// snapshot of the acknowledged state plus an empty log, the one compaction
// allowed while degraded — and on success returns the daemon to accepting
// writes. A healthy store reopens as a no-op, so the endpoint is safe to
// retry. A failure that leaves the store degraded is a 503 + Retry-After; a
// closed store never comes back and is the 500 it is on every other route.
func (s *Server) handleReopen(w http.ResponseWriter, _ *http.Request) {
	if err := s.st.Reopen(); err != nil {
		s.writeStoreError(w, err, http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, http.StatusOK, reopenBody{Health: s.st.Health(), Stats: s.st.Stats()})
}
