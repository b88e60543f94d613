// Package obs is the engine's observability layer: a zero-dependency
// metrics registry (atomic counters, gauges, fixed-bucket latency
// histograms with quantile extraction and Prometheus text exposition),
// a lightweight per-query stage trace carried on the context, the stage
// recorder that times each pipeline stage into both one histogram family
// and that trace, and a ring-buffer slow-query log.
//
// The package sits below everything: it imports only the standard
// library and nothing under internal/, so every layer — wal, resilience,
// corpus, enum, the public API, the server — can report into it without
// cycles. Instruments are nil-safe: calling Observe/Add/Inc on a nil
// *Histogram or *Counter is a no-op, so wiring code never branches on
// "is metrics enabled" — an unconfigured layer just holds nil handles.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotone counter. The nil counter discards observations.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the current count; 0 on the nil counter.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// DefBuckets are the default latency histogram bounds: exponential from
// 50µs to 10s, chosen so both a cache-hit count (~100µs) and a worst-case
// deadline (spand's 2m clamp lands in the overflow bucket) resolve to a
// meaningful quantile.
var DefBuckets = []time.Duration{
	50 * time.Microsecond, 100 * time.Microsecond, 250 * time.Microsecond,
	500 * time.Microsecond, time.Millisecond, 2500 * time.Microsecond,
	5 * time.Millisecond, 10 * time.Millisecond, 25 * time.Millisecond,
	50 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond,
	500 * time.Millisecond, time.Second, 2500 * time.Millisecond,
	5 * time.Second, 10 * time.Second,
}

// Histogram is a fixed-bucket latency histogram: one atomic counter per
// bucket plus an overflow bucket, an exact sum, and quantile extraction
// by bucket interpolation. Observe is lock-free and allocation-free, so
// it is safe on serving paths. The nil histogram discards observations.
type Histogram struct {
	bounds []time.Duration // ascending upper bounds; counts has one extra overflow slot
	counts []atomic.Uint64
	sum    atomic.Int64 // nanoseconds
}

func newHistogram(bounds []time.Duration) *Histogram {
	b := append([]time.Duration(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one duration (negative observations clamp to zero).
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	// Linear scan: bucket counts are small (≤ ~20) and the slice is in
	// cache; a binary search's branches cost as much as the walk.
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
}

// Count reads the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum reads the exact sum of all observations.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Quantile estimates the q-quantile (0 < q ≤ 1) by linear interpolation
// within the bucket the rank lands in; observations beyond the last
// bound report that bound (the histogram cannot resolve further). Zero
// observations report 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i := range h.counts {
		n := h.counts[i].Load()
		if cum+n < rank {
			cum += n
			continue
		}
		if i >= len(h.bounds) {
			// Overflow bucket: unbounded above, report the last bound.
			return h.bounds[len(h.bounds)-1]
		}
		lo := time.Duration(0)
		if i > 0 {
			lo = h.bounds[i-1]
		}
		frac := float64(rank-cum) / float64(n)
		return lo + time.Duration(frac*float64(h.bounds[i]-lo))
	}
	return h.bounds[len(h.bounds)-1]
}

// metricKind discriminates the exposition TYPE of a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Label is one fixed name=value pair attached to a metric at
// registration. Labels are static for the metric's lifetime — dynamic
// dimensions register one metric per value (the registry is idempotent,
// so registering in a hot handler is a map lookup, not an allocation
// storm).
type Label struct {
	Key, Value string
}

// metric is one registered time series.
type metric struct {
	labels    []Label
	counter   *Counter
	gaugeFn   func() float64
	counterFn func() uint64
	hist      *Histogram
}

// family groups the series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	order  []string // label signatures, registration order
	series map[string]*metric
}

// Registry holds named metrics and renders them in the Prometheus text
// exposition format. All methods are safe for concurrent use; the
// getters are get-or-create, so callers may re-register idempotently.
// The zero value is not usable — create with NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
	stages   *StageRecorder
}

// NewRegistry creates a registry holding only the stage recorder's
// spanjoin_stage_seconds family.
func NewRegistry() *Registry {
	r := &Registry{families: make(map[string]*family)}
	r.stages = newStageRecorder(r)
	return r
}

// Stages returns the registry's stage recorder, which every layer that
// records a pipeline stage shares.
func (r *Registry) Stages() *StageRecorder { return r.stages }

// labelSig is the canonical series key within a family.
func labelSig(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}

var nameOK = func(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return true
}

// lookup returns the family's series for the label set, creating both as
// needed; init populates a newly created series' instrument while the
// registry lock is held, so a metric's fields are immutable once it is
// visible in the map (scrapes read them without the lock). A name reused
// with a different kind panics: that is a programming error the first
// scrape would otherwise render as an unparseable exposition.
func (r *Registry) lookup(name, help string, kind metricKind, labels []Label, init func(*metric)) *metric {
	if !nameOK(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*metric)}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	sig := labelSig(labels)
	m := f.series[sig]
	if m == nil {
		m = &metric{labels: append([]Label(nil), labels...)}
		init(m)
		f.series[sig] = m
		f.order = append(f.order, sig)
	}
	return m
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	m := r.lookup(name, help, kindCounter, labels, func(m *metric) {
		m.counter = new(Counter)
	})
	return m.counter
}

// CounterFunc registers a counter whose value is read from f at scrape
// time — for wrapping cumulative counters a lower layer already keeps
// (WAL appends, cache hits, gate sheds) without double bookkeeping.
// First registration wins.
func (r *Registry) CounterFunc(name, help string, f func() uint64, labels ...Label) {
	r.lookup(name, help, kindCounter, labels, func(m *metric) {
		m.counterFn = f
	})
}

// Gauge registers a gauge whose value is read from f at scrape time.
// First registration wins.
func (r *Registry) Gauge(name, help string, f func() float64, labels ...Label) {
	r.lookup(name, help, kindGauge, labels, func(m *metric) {
		m.gaugeFn = f
	})
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (nil selects DefBuckets). Re-registration
// returns the existing histogram; its original bounds win.
func (r *Registry) Histogram(name, help string, buckets []time.Duration, labels ...Label) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	m := r.lookup(name, help, kindHistogram, labels, func(m *metric) {
		m.hist = newHistogram(buckets)
	})
	return m.hist
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, `\"`+"\n") {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// labelString renders {k="v",...}, merging extra (the le pair) last.
func labelString(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func seconds(d time.Duration) string { return formatFloat(d.Seconds()) }

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): families in registration order,
// each with # HELP and # TYPE lines, histograms with cumulative
// _bucket{le=...} series, _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		r.mu.Lock()
		sigs := append([]string(nil), f.order...)
		series := make([]*metric, len(sigs))
		for i, sig := range sigs {
			series[i] = f.series[sig]
		}
		r.mu.Unlock()
		for _, m := range series {
			if err := writeSeries(w, f, m); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, m *metric) error {
	switch f.kind {
	case kindCounter:
		v := m.counter.Value()
		if m.counterFn != nil {
			v = m.counterFn()
		}
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(m.labels), v)
		return err
	case kindGauge:
		var v float64
		if m.gaugeFn != nil {
			v = m.gaugeFn()
		}
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(m.labels), formatFloat(v))
		return err
	case kindHistogram:
		h := m.hist
		var cum uint64
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			le := Label{Key: "le", Value: seconds(bound)}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(m.labels, le), cum); err != nil {
				return err
			}
		}
		cum += h.counts[len(h.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(m.labels, Label{Key: "le", Value: "+Inf"}), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(m.labels), seconds(h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(m.labels), cum)
		return err
	}
	return nil
}

// MetricPoint is one metric's JSON-friendly snapshot, the machine shape
// /stats embeds. Histograms report count, sum and the standard
// quantiles; counters and gauges report a single value.
type MetricPoint struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Type   string            `json:"type"`
	Value  float64           `json:"value,omitempty"`
	Count  uint64            `json:"count,omitempty"`
	SumSec float64           `json:"sum_seconds,omitempty"`
	P50Sec float64           `json:"p50_seconds,omitempty"`
	P90Sec float64           `json:"p90_seconds,omitempty"`
	P99Sec float64           `json:"p99_seconds,omitempty"`
}

// Snapshot captures every registered metric as MetricPoints, families in
// registration order.
func (r *Registry) Snapshot() []MetricPoint {
	r.mu.Lock()
	type entry struct {
		f *family
		m *metric
	}
	var entries []entry
	for _, name := range r.order {
		f := r.families[name]
		for _, sig := range f.order {
			entries = append(entries, entry{f, f.series[sig]})
		}
	}
	r.mu.Unlock()

	out := make([]MetricPoint, 0, len(entries))
	for _, e := range entries {
		p := MetricPoint{Name: e.f.name, Type: e.f.kind.String()}
		if len(e.m.labels) > 0 {
			p.Labels = make(map[string]string, len(e.m.labels))
			for _, l := range e.m.labels {
				p.Labels[l.Key] = l.Value
			}
		}
		switch e.f.kind {
		case kindCounter:
			v := e.m.counter.Value()
			if e.m.counterFn != nil {
				v = e.m.counterFn()
			}
			p.Value = float64(v)
		case kindGauge:
			if e.m.gaugeFn != nil {
				p.Value = e.m.gaugeFn()
			}
		case kindHistogram:
			h := e.m.hist
			p.Count = h.Count()
			p.SumSec = h.Sum().Seconds()
			p.P50Sec = h.Quantile(0.50).Seconds()
			p.P90Sec = h.Quantile(0.90).Seconds()
			p.P99Sec = h.Quantile(0.99).Seconds()
		}
		out = append(out, p)
	}
	return out
}
