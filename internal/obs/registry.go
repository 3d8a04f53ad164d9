package obs

import (
	"fmt"
	"sort"
	"strings"

	"canec/internal/stats"
)

// Labels are the constant label set of one metric instance. They are
// copied at registration; later mutation of the caller's map is ignored.
type Labels map[string]string

// labelValueEscaper applies the Prometheus text-format escaping rules
// for label values: backslash, double quote, and line feed. Other bytes
// (including raw UTF-8) pass through unescaped, per the exposition
// format spec — unlike Go's %q, which escapes far more.
var labelValueEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// helpEscaper applies the HELP-line escaping rules: backslash and line
// feed only (double quotes are legal verbatim in HELP text).
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// labelKey renders labels canonically (sorted, Prometheus-escaped) for
// identity and output.
func labelKey(l Labels) string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		labelValueEscaper.WriteString(&b, l[k])
		b.WriteByte('"')
	}
	return b.String()
}

// Counter is a monotonically increasing metric.
type Counter struct {
	v float64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v++ }

// Add adds a non-negative delta.
func (c *Counter) Add(d float64) { c.v += d }

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v  float64
	fn func() float64
}

// Set replaces the value (no-op on function gauges).
func (g *Gauge) Set(v float64) { g.v = v }

// Add shifts the value (no-op on function gauges).
func (g *Gauge) Add(d float64) { g.v += d }

// Value returns the current value, evaluating function gauges.
func (g *Gauge) Value() float64 {
	if g.fn != nil {
		return g.fn()
	}
	return g.v
}

// HistSource is the shared face of the histogram backends
// (fixed-width stats.Histogram and log-bucketed stats.LogHistogram):
// everything exposition and quantile evaluation need, nothing more.
type HistSource interface {
	Observe(v float64)
	N() uint64
	Sum() float64
	Buckets() int
	Bucket(i int) uint64
	UpperBound(i int) float64
	OutOfRange() (under, over uint64)
	Quantile(q float64) float64
}

// Histogram is a distribution metric backed by either a fixed-width or
// a log-bucketed stats histogram.
type Histogram struct {
	h HistSource
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) { h.h.Observe(v) }

// Snapshot exposes the underlying histogram for rendering.
func (h *Histogram) Snapshot() HistSource { return h.h }

// metricKind tags a family for the exposition TYPE line.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// instance is one (labels, metric) pair inside a family.
type instance struct {
	labels string // canonical label rendering, "" for none
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups all instances of one metric name.
type family struct {
	name string
	help string
	kind metricKind
	inst []*instance
	by   map[string]*instance
}

// Registry is an ordered collection of named metrics. Like the Tracer it
// lives in single-kernel simulation context and needs no locking.
type Registry struct {
	fams  []*family
	byNam map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byNam: make(map[string]*family)}
}

func (r *Registry) fam(name, help string, kind metricKind) *family {
	f, ok := r.byNam[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, by: make(map[string]*instance)}
		r.byNam[name] = f
		r.fams = append(r.fams, f)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, f.kind))
	}
	return f
}

func (f *family) instance(labels Labels) *instance {
	key := labelKey(labels)
	in, ok := f.by[key]
	if !ok {
		in = &instance{labels: key}
		f.by[key] = in
		f.inst = append(f.inst, in)
	}
	return in
}

// Counter returns (creating on first use) the counter with this name and
// label set.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	in := r.fam(name, help, kindCounter).instance(labels)
	if in.c == nil {
		in.c = &Counter{}
	}
	return in.c
}

// Gauge returns (creating on first use) the gauge with this name and
// label set.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	in := r.fam(name, help, kindGauge).instance(labels)
	if in.g == nil {
		in.g = &Gauge{}
	}
	return in.g
}

// GaugeFunc registers a gauge whose value is computed at collection time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	in := r.fam(name, help, kindGauge).instance(labels)
	in.g = &Gauge{fn: fn}
}

// Histogram returns (creating on first use) a fixed-bucket histogram over
// [lo, hi) with the given bucket count.
func (r *Registry) Histogram(name, help string, labels Labels, lo, hi float64, buckets int) *Histogram {
	in := r.fam(name, help, kindHistogram).instance(labels)
	if in.h == nil {
		in.h = &Histogram{h: stats.NewHistogram(name, lo, hi, buckets)}
	}
	return in.h
}

// LogHistogram returns (creating on first use) a log-bucketed (HDR
// style) histogram over [min, max) with the given number of geometric
// buckets. Use it for durations, where relative rather than absolute
// quantile error is the right bound.
func (r *Registry) LogHistogram(name, help string, labels Labels, min, max float64, buckets int) *Histogram {
	in := r.fam(name, help, kindHistogram).instance(labels)
	if in.h == nil {
		in.h = &Histogram{h: stats.NewLogHistogram(name, min, max, buckets)}
	}
	return in.h
}

// maxVecLabels bounds the label names of one family; the child key is a
// fixed-size array so a look-up allocates nothing and label values cannot
// collide through a separator.
const maxVecLabels = 3

type vecKey [maxVecLabels]string

// vec is the one look-up-or-register implementation behind the labelled
// families: children are created through reg on first use, which is also
// when the family itself enters the registry, so exposition order stays
// first-use order and a family without children is absent from WriteText.
type vec[T any] struct {
	names []string
	reg   func(Labels) *T
	by    map[vecKey]*T
	keys  []vecKey // first-use order, for a deterministic Sum
}

func newVec[T any](names []string, reg func(Labels) *T) vec[T] {
	if len(names) == 0 || len(names) > maxVecLabels {
		panic(fmt.Sprintf("obs: a labelled family takes 1..%d label names, got %d", maxVecLabels, len(names)))
	}
	return vec[T]{names: names, reg: reg, by: make(map[vecKey]*T)}
}

func (v *vec[T]) key(values []string) (k vecKey) {
	if len(values) != len(v.names) {
		panic(fmt.Sprintf("obs: family with labels %v got %d values", v.names, len(values)))
	}
	copy(k[:], values)
	return k
}

// With returns (registering on first use) the child with these label
// values, given in the order of the family's label names.
func (v *vec[T]) With(values ...string) *T {
	k := v.key(values)
	c, ok := v.by[k]
	if !ok {
		labels := make(Labels, len(values))
		for i, name := range v.names {
			labels[name] = values[i]
		}
		c = v.reg(labels)
		v.by[k] = c
		v.keys = append(v.keys, k)
	}
	return c
}

// Find returns the child with these label values, or nil when it was
// never used; unlike With it registers nothing.
func (v *vec[T]) Find(values ...string) *T { return v.by[v.key(values)] }

// CounterVec is a counter family with a fixed set of label names.
type CounterVec struct{ vec[Counter] }

// CounterVec declares a labelled counter family. Nothing is registered
// until the first With.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{newVec(labelNames, func(l Labels) *Counter { return r.Counter(name, help, l) })}
}

// Sum adds the children whose first label values equal leading: Sum() is
// the family total, a full tuple one child's value. It registers nothing.
func (v *CounterVec) Sum(leading ...string) float64 {
	var sum float64
next:
	for _, k := range v.keys {
		for i, want := range leading {
			if k[i] != want {
				continue next
			}
		}
		sum += v.by[k].Value()
	}
	return sum
}

// HistogramVec is a log-bucketed histogram family with a fixed set of
// label names.
type HistogramVec struct{ vec[Histogram] }

// LogHistogramVec declares a labelled family of LogHistograms sharing one
// bucket layout. Nothing is registered until the first With.
func (r *Registry) LogHistogramVec(name, help string, min, max float64, buckets int, labelNames ...string) *HistogramVec {
	return &HistogramVec{newVec(labelNames, func(l Labels) *Histogram {
		return r.LogHistogram(name, help, l, min, max, buckets)
	})}
}

// render writes one sample line: name{labels} value.
func renderLine(b *strings.Builder, name, labels, extra string, v float64) {
	b.WriteString(name)
	if labels != "" || extra != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		if labels != "" && extra != "" {
			b.WriteByte(',')
		}
		b.WriteString(extra)
		b.WriteByte('}')
	}
	fmt.Fprintf(b, " %v\n", v)
}
