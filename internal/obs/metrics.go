// Package obs is the daemon's observability kit: a dependency-free metrics
// registry (atomic counters, gauges and fixed-bucket latency histograms that
// render in the Prometheus text exposition format) plus log/slog helpers and
// per-request IDs. Instrumented packages (core, store, sparql) never import
// obs — they expose hook structs and atomic counter snapshots, and the
// server layer bridges those into a Registry — so the engine stays
// dependency-light and the whole kit can be swapped without touching a hot
// path.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets are the default latency histogram bounds, in seconds. They span
// fast in-process scans (sub-millisecond) through slow HTTP requests.
var DefBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// MicroBuckets resolve microsecond-scale operations — WAL buffer writes —
// that DefBuckets would lump into one bucket.
var MicroBuckets = []float64{1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 1e-2}

var metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// Registry is a get-or-create collection of metric families. All methods are
// safe for concurrent use; fetching an already-registered series is two map
// lookups under a read lock, so callers may resolve metrics per-event
// (e.g. per HTTP request) instead of caching them.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

type family struct {
	name    string
	help    string
	typ     string // "counter", "gauge" or "histogram"
	buckets []float64

	mu     sync.Mutex
	series map[string]interface{} // label signature -> *Counter/*Gauge/*Histogram/func() float64
}

// labelSig renders alternating key/value pairs as the Prometheus label block
// ("" for none). Pairs keep their given order; metric identity is the
// rendered signature.
func labelSig(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("obs: labels must be alternating key/value pairs")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// getFamily returns the family with the given name, creating it on first
// use. Re-registering under a different type is a programming error.
func (r *Registry) getFamily(name, help, typ string, buckets []float64) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		if !metricName.MatchString(name) {
			panic("obs: invalid metric name " + name)
		}
		r.mu.Lock()
		if f = r.families[name]; f == nil {
			f = &family{name: name, help: help, typ: typ, buckets: buckets, series: make(map[string]interface{})}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as %s, requested as %s", name, f.typ, typ))
	}
	return f
}

// Counter returns the counter series for name+labels, creating it on first
// use. Labels are alternating key/value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	f := r.getFamily(name, help, "counter", nil)
	sig := labelSig(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[sig]; ok {
		return s.(*Counter)
	}
	c := &Counter{}
	f.series[sig] = c
	return c
}

// Gauge returns the gauge series for name+labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	f := r.getFamily(name, help, "gauge", nil)
	sig := labelSig(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[sig]; ok {
		return s.(*Gauge)
	}
	g := &Gauge{}
	f.series[sig] = g
	return g
}

// Histogram returns the histogram series for name+labels, creating it on
// first use with the given upper bounds (nil: DefBuckets). Bounds are fixed
// per family; later calls reuse the first registration's bounds.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.getFamily(name, help, "histogram", buckets)
	sig := labelSig(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[sig]; ok {
		return s.(*Histogram)
	}
	h := newHistogram(f.buckets)
	f.series[sig] = h
	return h
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// the bridge for counters that already live elsewhere as atomics (engine
// plan count, WAL byte size). Re-registering the same name+labels replaces
// the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	f := r.getFamily(name, help, "gauge", nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.series[labelSig(labels)] = fn
}

// CounterFunc registers a counter whose value is read at scrape time. The
// function must be monotonic (snapshots of an atomic counter are).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	f := r.getFamily(name, help, "counter", nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.series[labelSig(labels)] = fn
}

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket latency histogram: one atomic counter per
// bucket plus a CAS-maintained float sum, so Observe never takes a lock.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; the extra slot is +Inf
	sum    atomic.Uint64  // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered family in the Prometheus text
// exposition format, families and series in sorted order so scrapes are
// deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.RUnlock()

	var b strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, sig := range sigs {
			switch s := f.series[sig].(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, sig, s.Value())
			case *Gauge:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, sig, s.Value())
			case func() float64:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, sig, formatFloat(s()))
			case *Histogram:
				writeHistogram(&b, f.name, sig, s)
			}
		}
		f.mu.Unlock()
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders the cumulative _bucket/_sum/_count triplet. The
// "le" label is appended to the series' own labels.
func writeHistogram(b *strings.Builder, name, sig string, h *Histogram) {
	withLE := func(le string) string {
		if sig == "" {
			return `{le="` + le + `"}`
		}
		return sig[:len(sig)-1] + `,le="` + le + `"}`
	}
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLE(formatFloat(bound)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLE("+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, sig, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, sig, cum)
}

// Handler serves the registry at GET time in the Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
