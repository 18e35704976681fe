package obs

import (
	"expvar"
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

// Registry holds named metrics (counters, gauges, histograms, and
// labelled counter vectors) and exposes them in Prometheus text format
// and via expvar. Metric reads and writes are lock-free (atomics);
// registration takes a lock. A single registry can be shared by every
// run of a parallel sweep.
type Registry struct {
	mu         sync.Mutex
	order      []string
	metrics    map[string]metric
	collectors []func()
}

// metric is anything the registry can expose.
type metric interface {
	writeProm(w io.Writer, name, help string) error
	snapshot() any
	helpText() string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

// AddCollector registers a function run at exposition time (WriteProm and
// Snapshot), letting pull-style sources — Go runtime stats, scheduler
// self-profiles — refresh their gauges exactly when they are scraped.
// Collectors run outside the registry lock and may register metrics.
func (r *Registry) AddCollector(fn func()) {
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// collect runs the registered collectors (outside the lock).
func (r *Registry) collect() {
	r.mu.Lock()
	fns := append([]func(){}, r.collectors...)
	r.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// register get-or-creates a named metric, enforcing type stability.
func (r *Registry) register(name string, mk func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m
	}
	m := mk()
	r.metrics[name] = m
	r.order = append(r.order, name)
	return m
}

// Counter returns the named monotonically increasing counter, creating it
// on first use. Panics if the name is already a different metric type.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.register(name, func() metric { return &Counter{help: help} })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q is a %T, not a counter", name, m))
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.register(name, func() metric { return &Gauge{help: help} })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q is a %T, not a gauge", name, m))
	}
	return g
}

// Histogram returns the named histogram with the given upper bucket
// bounds (ascending; +Inf is implicit), creating it on first use.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	m := r.register(name, func() metric { return newHistogram(help, bounds) })
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q is a %T, not a histogram", name, m))
	}
	return h
}

// CounterVec returns the named counter family keyed by one label,
// creating it on first use.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	m := r.register(name, func() metric {
		return &CounterVec{help: help, label: label, children: make(map[string]*Counter)}
	})
	v, ok := m.(*CounterVec)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q is a %T, not a counter vec", name, m))
	}
	return v
}

// WriteProm renders every metric in Prometheus text exposition format,
// in registration order.
func (r *Registry) WriteProm(w io.Writer) error {
	r.collect()
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	metrics := make([]metric, len(names))
	for i, n := range names {
		metrics[i] = r.metrics[n]
	}
	r.mu.Unlock()
	for i, n := range names {
		if err := metrics[i].writeProm(w, n, metrics[i].helpText()); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot returns a plain name -> value map (counters and gauges as
// numbers, histograms and vecs as nested maps) for JSON export and tests.
func (r *Registry) Snapshot() map[string]any {
	r.collect()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.metrics))
	for name, m := range r.metrics {
		out[name] = m.snapshot()
	}
	return out
}

// expvarPublished guards against double-publishing (expvar panics on
// duplicate names, and tests may build several registries).
var expvarPublished sync.Map

// Expvar publishes the registry under the given expvar name. The
// /debug/vars handler (served by etsim -pprof) then exposes a live JSON
// snapshot. Publishing the same name twice rebinds it to this registry.
func (r *Registry) Expvar(name string) {
	if _, loaded := expvarPublished.LoadOrStore(name, r); loaded {
		expvarPublished.Store(name, r)
		return
	}
	expvar.Publish(name, expvar.Func(func() any {
		v, _ := expvarPublished.Load(name)
		reg, ok := v.(*Registry)
		if !ok {
			return nil
		}
		return reg.Snapshot()
	}))
}

// promEscapeHelp escapes a HELP string per the Prometheus text exposition
// format: backslash and line feed only.
func promEscapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// promEscapeLabel escapes a label value per the exposition format:
// backslash, double-quote, and line feed. (strconv.Quote over-escapes —
// a tab rendered as \t reads back as a literal 't' under the
// three-escape grammar.)
func promEscapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// --- counter ---

// Counter is a monotonically increasing counter.
type Counter struct {
	v    atomic.Uint64
	help string
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) helpText() string { return c.help }
func (c *Counter) snapshot() any    { return c.v.Load() }

func (c *Counter) writeProm(w io.Writer, name, help string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
		name, promEscapeHelp(help), name, name, c.v.Load())
	return err
}

// --- gauge ---

// Gauge is a float value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
	help string
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) helpText() string { return g.help }
func (g *Gauge) snapshot() any    { return g.Value() }

func (g *Gauge) writeProm(w io.Writer, name, help string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
		name, promEscapeHelp(help), name, name, strconv.FormatFloat(g.Value(), 'g', -1, 64))
	return err
}

// --- histogram ---

// Histogram counts observations into cumulative buckets (Prometheus
// semantics: each bucket counts observations <= its upper bound).
type Histogram struct {
	help   string
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64   // float64 bits, CAS-updated
	count  atomic.Uint64
}

func newHistogram(help string, bounds []float64) *Histogram {
	bounds = append([]float64(nil), bounds...)
	sort.Float64s(bounds)
	return &Histogram{
		help:   help,
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		s := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

func (h *Histogram) helpText() string { return h.help }

func (h *Histogram) snapshot() any {
	buckets := make(map[string]uint64, len(h.bounds)+1)
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		buckets[strconv.FormatFloat(b, 'g', -1, 64)] = cum
	}
	buckets["+Inf"] = cum + h.counts[len(h.bounds)].Load()
	return map[string]any{"buckets": buckets, "sum": h.Sum(), "count": h.Count()}
}

func (h *Histogram) writeProm(w io.Writer, name, help string) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, promEscapeHelp(help), name); err != nil {
		return err
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n",
			name, strconv.FormatFloat(b, 'g', -1, 64), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n",
		name, strconv.FormatFloat(h.Sum(), 'g', -1, 64), name, h.count.Load())
	return err
}

// --- counter vec ---

// CounterVec is a family of counters distinguished by one label value
// (e.g. events_total{type="heartbeat_sent"}).
type CounterVec struct {
	help     string
	label    string
	mu       sync.Mutex
	order    []string
	children map[string]*Counter
}

// With returns the child counter for the given label value, creating it
// on first use.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[value]
	if !ok {
		c = &Counter{}
		v.children[value] = c
		v.order = append(v.order, value)
		sort.Strings(v.order)
	}
	return c
}

// Value returns the count for a label value (0 when absent).
func (v *CounterVec) Value(value string) uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[value]; ok {
		return c.Value()
	}
	return 0
}

func (v *CounterVec) helpText() string { return v.help }

func (v *CounterVec) snapshot() any {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string]uint64, len(v.children))
	for k, c := range v.children {
		out[k] = c.Value()
	}
	return out
}

func (v *CounterVec) writeProm(w io.Writer, name, help string) error {
	v.mu.Lock()
	values := append([]string(nil), v.order...)
	children := make([]*Counter, len(values))
	for i, val := range values {
		children[i] = v.children[val]
	}
	label := v.label
	v.mu.Unlock()
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, promEscapeHelp(help), name); err != nil {
		return err
	}
	for i, val := range values {
		if _, err := fmt.Fprintf(w, "%s{%s=\"%s\"} %d\n", name, label, promEscapeLabel(val), children[i].Value()); err != nil {
			return err
		}
	}
	return nil
}
