// Response caching for the read-mostly API routes. The server caches
// fully-rendered response bytes (JSON reports, N-Triples dumps) in the
// generation-keyed cache: a warm hit costs one map lookup and one write, no
// scan and no rendering. This is the only result cache in the system — the
// engine below is a pure function of (plan set, query or KB). Every
// cacheable route answers with an X-Cache header (hit | miss | bypass |
// collapsed), honours Cache-Control: no-cache / no-store as a per-request
// bypass, and /api/plans/{id}/rdf additionally carries an ETag keyed by
// (plan id, server process, data generation) for If-None-Match revalidation.
package server

import (
	"bytes"
	"context"
	"encoding/json"
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

// encodeJSON renders v exactly as writeJSON would put it on the wire
// (two-space indent, trailing newline), so cached and uncached responses
// are byte-identical.
func encodeJSON(v interface{}) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
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

// genToken renders a data generation for use as a cache-key component.
func genToken(gen uint64) string { return strconv.FormatUint(gen, 10) }

// serveCached runs render through the response cache under key and writes
// the result with an X-Cache header. keyGen is the engine generation the
// key pins: if the generation moved while rendering, the response is still
// served but not stored, so a newer body is never filed under an older key.
// Engine errors route through execError, falling back to fallback for
// ordinary failures. With no cache configured (or a bypass in ctx) render
// runs directly and X-Cache reports "bypass".
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, ctx context.Context,
	key string, keyGen uint64, contentType string, fallback int,
	render func(context.Context) ([]byte, error)) {

	b, out, err := s.cache.Do(ctx, key, func(fctx context.Context) (cache.Result, error) {
		b, err := render(fctx)
		if err != nil {
			return cache.Result{}, err
		}
		return cache.Result{Body: b, NoStore: s.eng.Generation() != keyGen}, nil
	})
	if err != nil {
		if !s.execError(w, r, err) {
			writeError(w, fallback, err)
		}
		return
	}
	w.Header().Set("X-Cache", out.String())
	w.Header().Set("Content-Type", contentType)
	// Content-Length is set explicitly so HEAD answers carry the same
	// headers a GET would; the body itself is GET-only (RFC 9110 §9.3.2).
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	if r.Method != http.MethodHead {
		_, _ = w.Write(b)
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
