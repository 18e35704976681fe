// Package aggregate implements EnviroTrack's approximate aggregate state
// (Section 3.2.3): a library of aggregation functions (average, sum, min,
// max, count, centroid / center of gravity) and the sliding-window
// bookkeeping that enforces the two QoS parameters of environmental
// tracking — the freshness horizon Le and the critical mass Ne. A read of
// an aggregate state variable succeeds only when at least Ne distinct
// sensors reported within the last Le time units.
package aggregate

import (
	"fmt"
	"math"
	"sort"
	"time"

	"envirotrack/internal/geom"
)

// Sample is one sensor contribution to an aggregate variable: a scalar
// measurement and the reporting mote's position (used by position-valued
// aggregates such as the centroid).
type Sample struct {
	MoteID int
	At     time.Duration
	Scalar float64
	Pos    geom.Point
}

// Value is an aggregation result: either a scalar or a position.
type Value struct {
	Scalar float64
	Pos    geom.Point
	IsPos  bool
}

// String implements fmt.Stringer.
func (v Value) String() string {
	if v.IsPos {
		return v.Pos.String()
	}
	return fmt.Sprintf("%.4f", v.Scalar)
}

// Func is a named aggregation function over a set of samples. Apply is
// never called with an empty sample set.
type Func struct {
	Name string
	// PosInput indicates the function aggregates reporter positions rather
	// than scalar measurements (the "avg(position)" of Figure 2).
	PosInput bool
	Apply    func([]Sample) Value
}

// Builtin aggregation functions.
var (
	// Avg is the arithmetic mean of scalar measurements.
	Avg = Func{Name: "avg", Apply: func(ss []Sample) Value {
		var sum float64
		for _, s := range ss {
			sum += s.Scalar
		}
		return Value{Scalar: sum / float64(len(ss))}
	}}
	// Sum totals scalar measurements.
	Sum = Func{Name: "sum", Apply: func(ss []Sample) Value {
		var sum float64
		for _, s := range ss {
			sum += s.Scalar
		}
		return Value{Scalar: sum}
	}}
	// Min returns the smallest measurement.
	Min = Func{Name: "min", Apply: func(ss []Sample) Value {
		m := math.Inf(1)
		for _, s := range ss {
			m = math.Min(m, s.Scalar)
		}
		return Value{Scalar: m}
	}}
	// Max returns the largest measurement.
	Max = Func{Name: "max", Apply: func(ss []Sample) Value {
		m := math.Inf(-1)
		for _, s := range ss {
			m = math.Max(m, s.Scalar)
		}
		return Value{Scalar: m}
	}}
	// Count returns the number of contributing sensors.
	Count = Func{Name: "count", Apply: func(ss []Sample) Value {
		return Value{Scalar: float64(len(ss))}
	}}
	// Centroid averages reporter positions (unweighted center of gravity).
	Centroid = Func{Name: "centroid", PosInput: true, Apply: func(ss []Sample) Value {
		pts := make([]geom.Point, len(ss))
		for i, s := range ss {
			pts[i] = s.Pos
		}
		return Value{Pos: geom.Centroid(pts), IsPos: true}
	}}
	// WeightedCentroid averages reporter positions weighted by the scalar
	// measurement (e.g. magnetic intensity), improving position estimates
	// when sensors report signal strength. Zero or negative total weight
	// falls back to the unweighted centroid.
	WeightedCentroid = Func{Name: "wcentroid", PosInput: true, Apply: func(ss []Sample) Value {
		var wx, wy, wsum float64
		for _, s := range ss {
			if s.Scalar > 0 {
				wx += s.Pos.X * s.Scalar
				wy += s.Pos.Y * s.Scalar
				wsum += s.Scalar
			}
		}
		if wsum <= 0 {
			return Centroid.Apply(ss)
		}
		return Value{Pos: geom.Pt(wx/wsum, wy/wsum), IsPos: true}
	}}
)

// Registry resolves aggregation-function names from EnviroTrack
// declarations. Construct with NewRegistry.
type Registry struct {
	funcs map[string]Func
}

// NewRegistry returns a registry holding the builtin functions. Note that
// "avg" applied to the special input "position" is resolved to Centroid by
// the language layer.
func NewRegistry() *Registry {
	r := &Registry{funcs: make(map[string]Func)}
	for _, f := range []Func{Avg, Sum, Min, Max, Count, Centroid, WeightedCentroid} {
		r.funcs[f.Name] = f
	}
	return r
}

// Register adds a custom aggregation function; the name must be unused.
func (r *Registry) Register(f Func) error {
	if f.Name == "" {
		return fmt.Errorf("aggregate: empty function name")
	}
	if f.Apply == nil {
		return fmt.Errorf("aggregate: nil Apply for %q", f.Name)
	}
	if _, ok := r.funcs[f.Name]; ok {
		return fmt.Errorf("aggregate: function %q already registered", f.Name)
	}
	r.funcs[f.Name] = f
	return nil
}

// Lookup returns the named function.
func (r *Registry) Lookup(name string) (Func, bool) {
	f, ok := r.funcs[name]
	return f, ok
}

// Names returns the registered names, sorted.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.funcs))
	for n := range r.funcs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Window maintains one aggregate state variable at the group leader. It
// keeps the most recent sample from each reporting mote and evaluates the
// aggregation function over the samples that satisfy the freshness horizon,
// marking the result valid only when the critical mass is met.
type Window struct {
	fn           Func
	freshness    time.Duration
	criticalMass int
	latest       map[int]Sample // most recent sample per mote
}

// NewWindow creates a window for one aggregate variable. freshness must be
// positive; criticalMass below 1 is treated as 1.
func NewWindow(fn Func, freshness time.Duration, criticalMass int) (*Window, error) {
	if fn.Apply == nil {
		return nil, fmt.Errorf("aggregate: window needs a function")
	}
	if freshness <= 0 {
		return nil, fmt.Errorf("aggregate: freshness must be positive, got %v", freshness)
	}
	if criticalMass < 1 {
		criticalMass = 1
	}
	return &Window{
		fn:           fn,
		freshness:    freshness,
		criticalMass: criticalMass,
		latest:       make(map[int]Sample),
	}, nil
}

// Freshness returns the window's freshness horizon Le.
func (w *Window) Freshness() time.Duration { return w.freshness }

// CriticalMass returns the window's critical mass Ne.
func (w *Window) CriticalMass() int { return w.criticalMass }

// Func returns the window's aggregation function.
func (w *Window) Func() Func { return w.fn }

// Add records a sample, superseding any earlier sample from the same mote
// (stale or out-of-order samples never replace fresher ones).
func (w *Window) Add(s Sample) {
	if prev, ok := w.latest[s.MoteID]; ok && prev.At > s.At {
		return
	}
	w.latest[s.MoteID] = s
}

// fresh returns the samples within the freshness horizon at the given time,
// in deterministic (mote id) order, pruning expired entries as it goes.
func (w *Window) fresh(now time.Duration) []Sample {
	cutoff := now - w.freshness
	ids := make([]int, 0, len(w.latest))
	for id, s := range w.latest {
		if s.At < cutoff {
			delete(w.latest, id)
			continue
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]Sample, 0, len(ids))
	for _, id := range ids {
		out = append(out, w.latest[id])
	}
	return out
}

// FreshCount returns the number of distinct motes with a fresh sample.
func (w *Window) FreshCount(now time.Duration) int {
	return len(w.fresh(now))
}

// Read evaluates the aggregate at the given time. The boolean result is the
// valid flag of Section 3.2.3: false (a "null" read) when fewer than Ne
// distinct sensors reported within Le.
func (w *Window) Read(now time.Duration) (Value, bool) {
	ss := w.fresh(now)
	if len(ss) < w.criticalMass {
		return Value{}, false
	}
	return w.fn.Apply(ss), true
}

// Reset discards all samples (used when leadership moves without state
// transfer).
func (w *Window) Reset() {
	w.latest = make(map[int]Sample)
}
