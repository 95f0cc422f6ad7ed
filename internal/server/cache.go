// The read path. The four read-mostly routes (POST /api/search, /api/sparql,
// /api/kb/run, GET /api/plans/{id}/rdf) are each a readRoute descriptor, and
// serveRead is the one function that runs them: body limit, deadline, cache
// directives, generation pin, key, validator, cache, errors and response
// headers are spelled there and nowhere else. What it caches is the rendered
// response bytes, keyed by generation — a warm hit costs a parse of the
// request, one map lookup and one write, no compile, no scan, no rendering —
// and this is the only result cache in the system: the engine below is a pure
// function of (plan set, query or KB).
package server

import (
	"context"
	"net/http"
	"strconv"
	"strings"

	"optimatch/internal/cache"
)

// WithResultCache caches rendered responses for POST /api/search,
// /api/sparql, /api/kb/run and GET /api/plans/{id}/rdf in c. Keys include
// the engine's data generation (and the knowledge base's cache key for
// kb/run), so a plan or KB mutation simply orphans old entries — they age
// out under the byte budget, and a stale response is never served.
func WithResultCache(c *cache.Cache) Option {
	return func(s *Server) { s.cache = c }
}

// cacheContext applies the client's cache directives to the execution
// context: Cache-Control: no-cache or no-store (the request-side
// directives) makes the execution bypass the cache.
func cacheContext(ctx context.Context, r *http.Request) context.Context {
	cc := strings.ToLower(r.Header.Get("Cache-Control"))
	if strings.Contains(cc, "no-cache") || strings.Contains(cc, "no-store") ||
		strings.ToLower(r.Header.Get("Pragma")) == "no-cache" {
		return cache.WithBypass(ctx)
	}
	return ctx
}

// renderFunc renders one response body under the execution context.
type renderFunc func(ctx context.Context) ([]byte, error)

// readRoute describes one cached read route; serveRead runs it.
type readRoute struct {
	name        string // first part of the cache key, e.g. "http.search"
	contentType string
	maxBody     int64 // read at most this much of the request body and hand it to parse (0: none)
	parseStatus int   // status of an error from parse
	fallback    int   // status of a render error that is no deadline or cancellation
	// parse turns the request into the key part that, with the generation,
	// identifies the answer, and the closure that renders it.
	parse func(r *http.Request, body []byte) (part string, render renderFunc, err error)
	// validator, when set, names the answer in an ETag and makes the route
	// honour If-None-Match.
	validator func(part string, gen uint64) string
}

// serveRead is the handler of a read route. Its steps fail in the order
// they are written: 413 / 400 for the body, the route's parseStatus, 400 for
// a malformed X-Timeout-Ms, 304, then whatever the render ends in. The
// generation is read before parse looks anything up, so neither the key nor
// the validator claims a newer state than what render closes over; a body
// rendered while the generation moved is served but not stored, and an error
// is neither stored nor given a validator. Without a cache, or under
// Cache-Control: no-cache / no-store, render runs directly and X-Cache says
// "bypass".
func (s *Server) serveRead(rt readRoute) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var body []byte
		if rt.maxBody > 0 {
			var ok bool
			if body, ok = readBody(w, r, rt.maxBody); !ok {
				return
			}
		}
		gen := s.eng.Generation()
		part, render, err := rt.parse(r, body)
		if err != nil {
			writeError(w, rt.parseStatus, err)
			return
		}
		ctx, cancel, err := s.execContext(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		defer cancel()
		ctx = cacheContext(ctx, r)
		var etag string
		if rt.validator != nil {
			etag = rt.validator(part, gen)
			if etagMatch(r.Header.Get("If-None-Match"), etag) {
				w.Header().Set("ETag", etag)
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
		key := cache.Key(rt.name, strconv.FormatUint(gen, 10), part)
		b, out, err := s.cache.Do(ctx, key, func(fctx context.Context) (cache.Result, error) {
			body, err := render(fctx)
			if err != nil {
				return cache.Result{}, err
			}
			return cache.Result{Body: body, NoStore: s.eng.Generation() != gen}, nil
		})
		if err != nil {
			s.execError(w, r, err, rt.fallback)
			return
		}
		h := w.Header()
		if etag != "" {
			h.Set("ETag", etag)
		}
		h.Set("X-Cache", out.String())
		h.Set("Content-Type", rt.contentType)
		// Explicit, so a HEAD carries the headers of the GET whose body it
		// omits (RFC 9110 §9.3.2).
		h.Set("Content-Length", strconv.Itoa(len(b)))
		w.WriteHeader(http.StatusOK)
		if r.Method != http.MethodHead {
			_, _ = w.Write(b)
		}
	}
}

// fnv64a is the FNV-1a hash of s, used to keep plan IDs of any length and
// character set inside a well-formed ETag.
func fnv64a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// planETag is the strong validator for GET /api/plans/{id}/rdf: it changes
// whenever the served bytes can (the plan set mutated). gen is the engine
// data generation, which a restart counts again from the records it replays:
// the server's epoch, drawn once per process, keeps a validator minted under
// one process's counter from matching under another's.
func (s *Server) planETag(id string, gen uint64) string {
	return `"qep-` + strconv.FormatUint(fnv64a(id), 16) + `-` + strconv.FormatUint(s.epoch, 16) +
		`-` + strconv.FormatUint(gen, 10) + `"`
}

// etagMatch implements the If-None-Match comparison: a comma-separated
// list of entity tags, "*" matching anything, weak prefixes compared
// weakly (RFC 9110 §8.8.3.2).
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	etag = strings.TrimPrefix(etag, "W/")
	for _, candidate := range strings.Split(header, ",") {
		candidate = strings.TrimSpace(candidate)
		if candidate == "*" {
			return true
		}
		if strings.TrimPrefix(candidate, "W/") == etag {
			return true
		}
	}
	return false
}
