package server

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"optimatch/internal/obs"
)

// statusRecorder captures the status code and body size a handler wrote so
// the access log and metrics can report them after the fact.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// statusClass buckets a status code into "2xx".."5xx" for low-cardinality
// metric labels.
func statusClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return strconv.Itoa(code/100) + "xx"
}

// withObservability wraps the mux with the access-log/metrics middleware:
// every request gets an X-Request-ID (minted unless the client sent one), a
// per-route latency/status-class measurement, a structured access-log line,
// and a WARN line when it ran longer than the slow threshold. With neither a
// logger nor a registry configured the mux is returned untouched.
func (s *Server) withObservability(mux *http.ServeMux) http.Handler {
	if s.log == nil && s.metrics == nil {
		return mux
	}
	var inFlight *obs.Gauge
	if s.metrics != nil {
		inFlight = s.metrics.Gauge("optimatch_http_in_flight", "Requests currently being served.")
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		rec := &statusRecorder{ResponseWriter: w}
		if inFlight != nil {
			inFlight.Add(1)
			defer inFlight.Add(-1) // a panic that net/http recovers leaves too
		}
		mux.ServeHTTP(rec, r.WithContext(obs.WithRequestID(r.Context(), id)))
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		elapsed := time.Since(start)

		// Label series by the registered route pattern, never the raw URL:
		// "/api/plans/{id}" keeps cardinality bounded where "/api/plans/Q1",
		// "/api/plans/Q2", ... would not.
		_, route := mux.Handler(r)
		if route == "" {
			route = "unrouted"
		}
		if s.metrics != nil {
			s.metrics.Counter("optimatch_http_requests_total",
				"HTTP requests by route pattern, method and status class.",
				"route", route, "method", r.Method, "class", statusClass(rec.status)).Inc()
			s.metrics.Histogram("optimatch_http_request_seconds",
				"HTTP request latency by route pattern.", nil,
				"route", route).ObserveDuration(elapsed)
		}
		if s.log != nil {
			attrs := []slog.Attr{
				slog.String("request_id", id),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("route", route),
				slog.Int("status", rec.status),
				slog.Int64("bytes", rec.bytes),
				slog.Duration("elapsed", elapsed),
				slog.String("remote", r.RemoteAddr),
			}
			// What the response cache did with a read (hit | miss | bypass |
			// collapsed); routes serveRead does not serve have no X-Cache.
			if xc := w.Header().Get("X-Cache"); xc != "" {
				attrs = append(attrs, slog.String("cache", xc))
			}
			// A 499 means the client hung up mid-request: log it under its
			// own message so disconnect spikes are one grep away, and never
			// as an ordinary "request" that appears to have been answered.
			msg := "request"
			if rec.status == StatusClientClosedRequest {
				msg = "client closed request"
			}
			s.log.LogAttrs(r.Context(), slog.LevelInfo, msg, attrs...)
			if s.slow > 0 && elapsed >= s.slow {
				s.log.LogAttrs(r.Context(), slog.LevelWarn, "slow request",
					append(attrs, slog.Duration("threshold", s.slow))...)
			}
		}
	})
}
