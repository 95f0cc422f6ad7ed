package obs

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeRendering(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 3; i++ {
		r.Counter("test_requests_total", "requests", "route", "GET /x", "class", "2xx").Inc()
	}
	r.Counter("test_requests_total", "requests", "route", "GET /x", "class", "5xx").Inc()
	r.Gauge("test_in_flight", "in flight").Add(2)
	r.GaugeFunc("test_live", "live value", func() float64 { return 7.5 })
	r.CounterFunc("test_snap_total", "snapshotted atomic", func() float64 { return 41 })

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE test_requests_total counter",
		`test_requests_total{route="GET /x",class="2xx"} 3`,
		`test_requests_total{route="GET /x",class="5xx"} 1`,
		"# TYPE test_in_flight gauge",
		"test_in_flight 2",
		"test_live 7.5",
		"test_snap_total 41",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCounterIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_total", "", "k", "v")
	b := r.Counter("test_total", "", "k", "v")
	if a != b {
		t.Error("same name+labels returned distinct series")
	}
	if c := r.Counter("test_total", "", "k", "other"); c == a {
		t.Error("different labels shared a series")
	}
}

func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("test_total", "")
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	h.ObserveDuration(20 * time.Millisecond)
	if got, want := h.Sum(), 5.625; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("sum = %v, want %v", got, want)
	}
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE test_seconds histogram",
		`test_seconds_bucket{le="0.01"} 1`,
		`test_seconds_bucket{le="0.1"} 4`,
		`test_seconds_bucket{le="1"} 5`,
		`test_seconds_bucket{le="+Inf"} 6`,
		"test_seconds_count 6",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestExpositionFormat checks that every rendered line is either a comment
// or "name[{labels}] value" — the shape Prometheus scrapers require.
func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "with \"quotes\"", "path", `C:\x "y"`).Inc()
	r.Histogram("b_seconds", "", nil).Observe(0.2)
	r.Gauge("c", "multi\nline help").Add(-4)
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9+.eInf-]+$`)
	for _, l := range strings.Split(strings.TrimRight(b.String(), "\n"), "\n") {
		if strings.HasPrefix(l, "#") {
			continue
		}
		if !line.MatchString(l) {
			t.Errorf("malformed exposition line: %q", l)
		}
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("conc_total", "").Inc()
				r.Histogram("conc_seconds", "", nil).Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("conc_total", "").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "conc_seconds_count 8000\n") {
		t.Errorf("histogram count is not 8000:\n%s", b.String())
	}
}

func TestRequestIDs(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Errorf("consecutive request IDs collide: %s", a)
	}
	ctx := WithRequestID(context.Background(), a)
	if got := RequestIDFrom(ctx); got != a {
		t.Errorf("RequestIDFrom = %q, want %q", got, a)
	}
	if got := RequestIDFrom(context.Background()); got != "" {
		t.Errorf("RequestIDFrom(empty) = %q", got)
	}
}

func TestLoggerAndLevels(t *testing.T) {
	if _, err := ParseLevel("nonsense"); err == nil {
		t.Error("ParseLevel accepted nonsense")
	}
	lvl, err := ParseLevel("WARN")
	if err != nil || lvl != slog.LevelWarn {
		t.Errorf("ParseLevel(WARN) = %v, %v", lvl, err)
	}
	var b bytes.Buffer
	log := NewLogger(&b, slog.LevelWarn, "json")
	log.Info("hidden")
	log.Warn("shown", "k", "v")
	out := b.String()
	if strings.Contains(out, "hidden") || !strings.Contains(out, `"shown"`) {
		t.Errorf("level filtering wrong: %s", out)
	}
	if !strings.Contains(out, `"k":"v"`) {
		t.Errorf("json attrs missing: %s", out)
	}
}

// TestTiming: a recorder adds one Server-Timing value per stage, in
// milliseconds, with its outcome when it has one; it travels in a context,
// and a nil one — what a context without one yields — records nothing.
func TestTiming(t *testing.T) {
	h := http.Header{}
	ctx := WithTiming(context.Background(), NewTiming(h))
	TimingFrom(ctx).Record("cache", "miss", 1500*time.Microsecond)
	TimingFrom(ctx).Record("render", "", 2*time.Nanosecond)
	if got, want := h.Values("Server-Timing"), []string{"cache;desc=miss;dur=1.500", "render;dur=0.000"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Server-Timing = %q, want %q", got, want)
	}
	if TimingFrom(context.Background()) != nil {
		t.Fatal("a context without a recorder yields one")
	}
	TimingFrom(context.Background()).Record("admit", "", time.Second)
}
