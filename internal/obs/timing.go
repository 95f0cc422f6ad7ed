package obs

import (
	"context"
	"net/http"
	"strconv"
	"time"
)

// Timing records the stages of one request in its response's Server-Timing
// header (W3C Server Timing): each stage is one `name;desc=…;dur=…` value,
// added as it is recorded, so a response carries the stages that ran before
// it was written, whatever its status. It travels in the request's context;
// a nil *Timing records nothing.
type Timing struct{ h http.Header }

// NewTiming returns a recorder writing into h, a response's header.
func NewTiming(h http.Header) *Timing { return &Timing{h: h} }

// Record adds the stage name, which took d; desc, when not empty, names its
// outcome and must be an HTTP token. Durations go out in milliseconds.
func (t *Timing) Record(name, desc string, d time.Duration) {
	if t == nil {
		return
	}
	v := name
	if desc != "" {
		v += ";desc=" + desc
	}
	t.h.Add("Server-Timing", v+";dur="+strconv.FormatFloat(float64(d)/float64(time.Millisecond), 'f', 3, 64))
}

type timingKey struct{}

// WithTiming returns ctx carrying t.
func WithTiming(ctx context.Context, t *Timing) context.Context {
	return context.WithValue(ctx, timingKey{}, t)
}

// TimingFrom returns the recorder ctx carries, or nil.
func TimingFrom(ctx context.Context) *Timing {
	t, _ := ctx.Value(timingKey{}).(*Timing)
	return t
}
