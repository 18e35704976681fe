// Package sensor models the sensing hardware of a mote and the library of
// named boolean sensing functions (the paper's sensee() conditions) that
// context activation statements refer to. A mote periodically samples a
// Model, which derives named scalar channels ("magnetic", "temperature",
// "light", ...) from the phenomena field, and evaluates predicates over the
// resulting Reading.
package sensor

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"envirotrack/internal/geom"
	"envirotrack/internal/phenomena"
)

// Reading is one sample of a mote's local environment. Readings produced
// by Model.SampleInto are backed by the model's sorted name table and the
// caller's value scratch (valid until the caller's next scan); the public
// Values map remains as a construction convenience for tests and ad-hoc
// readings.
type Reading struct {
	At       time.Duration
	MoteID   int
	Position geom.Point
	Values   map[string]float64
	// Slice-backed representation used by the sampling hot path: parallel
	// name/value tables, names sorted ascending.
	names []string
	vals  []float64
}

// Value returns the named channel's sample.
func (r Reading) Value(name string) (float64, bool) {
	if r.Values != nil {
		v, ok := r.Values[name]
		return v, ok
	}
	// The name table is sorted but tiny (a handful of channels), so a
	// linear scan beats a binary search's branch overhead.
	for i, n := range r.names {
		if n == name {
			return r.vals[i], true
		}
	}
	return 0, false
}

// Channels returns the number of sampled channels.
func (r Reading) Channels() int {
	if r.Values != nil {
		return len(r.Values)
	}
	return len(r.names)
}

// ChannelFunc computes a scalar channel value at a position from the
// environment resolved at one instant. Channels are evaluated for every
// mote every sensing period, against the snapshot the sweep resolved for
// that tick.
type ChannelFunc func(env *phenomena.Snapshot, pos geom.Point) float64

// DetectionChannel returns 1 when a kind-k target's signature covers the
// position and 0 otherwise — the idealized threshold detector used in the
// paper's testbed.
func DetectionChannel(kind string) ChannelFunc {
	return func(env *phenomena.Snapshot, pos geom.Point) float64 {
		if env.DetectsAny(kind, pos) {
			return 1
		}
		return 0
	}
}

// IntensityChannel returns the inverse-cube intensity of kind-k targets,
// scaled by scale (e.g. a magnetometer's gain).
func IntensityChannel(kind string, scale float64) ChannelFunc {
	return func(env *phenomena.Snapshot, pos geom.Point) float64 {
		return env.Intensity(kind, pos) * scale
	}
}

// ConstantChannel returns a fixed ambient value (e.g. background
// temperature).
func ConstantChannel(v float64) ChannelFunc {
	return func(*phenomena.Snapshot, geom.Point) float64 { return v }
}

// SumChannels returns the sum of the given channels.
func SumChannels(fns ...ChannelFunc) ChannelFunc {
	return func(env *phenomena.Snapshot, pos geom.Point) float64 {
		var total float64
		for _, fn := range fns {
			total += fn(env, pos)
		}
		return total
	}
}

// WithNoise adds zero-mean Gaussian noise with the given standard deviation
// to a channel, drawn from rng.
func WithNoise(fn ChannelFunc, stddev float64, rng *rand.Rand) ChannelFunc {
	return func(env *phenomena.Snapshot, pos geom.Point) float64 {
		return fn(env, pos) + rng.NormFloat64()*stddev
	}
}

// Model is a mote's sensing suite: a set of named channels sampled
// together. Channels are stored as parallel sorted name/function tables so
// that sampling walks a slice instead of a map; a model may be shared by
// every mote in a network, so it owns no sampling scratch — callers pass
// their own via SampleInto.
type Model struct {
	names []string
	fns   []ChannelFunc
}

// NewModel returns an empty sensing model.
func NewModel() *Model {
	return &Model{}
}

// SetChannel installs or replaces a named channel.
func (m *Model) SetChannel(name string, fn ChannelFunc) {
	i := sort.SearchStrings(m.names, name)
	if i < len(m.names) && m.names[i] == name {
		m.fns[i] = fn
		return
	}
	m.names = append(m.names, "")
	copy(m.names[i+1:], m.names[i:])
	m.names[i] = name
	m.fns = append(m.fns, nil)
	copy(m.fns[i+1:], m.fns[i:])
	m.fns[i] = fn
}

// Channels returns the channel names in sorted order.
func (m *Model) Channels() []string {
	out := make([]string, len(m.names))
	copy(out, m.names)
	return out
}

// NumChannels returns the number of installed channels (the capacity a
// SampleInto scratch buffer needs).
func (m *Model) NumChannels() int { return len(m.names) }

// Sample evaluates every channel at the given position against env into
// a freshly allocated reading.
func (m *Model) Sample(env *phenomena.Snapshot, moteID int, pos geom.Point) Reading {
	rd, _ := m.SampleInto(env, moteID, pos, nil)
	return rd
}

// SampleInto evaluates every channel at the given position against env,
// appending the values to buf (typically the previous scan's buffer
// re-sliced to [:0]) so steady-state sampling allocates nothing. It
// returns the reading and the extended buffer for reuse; the reading
// aliases the buffer and is valid until the buffer's next reuse; its At is
// env.At. Channels are evaluated in sorted name order.
func (m *Model) SampleInto(env *phenomena.Snapshot, moteID int, pos geom.Point, buf []float64) (Reading, []float64) {
	for _, fn := range m.fns {
		buf = append(buf, fn(env, pos))
	}
	return Reading{At: env.At, MoteID: moteID, Position: pos, names: m.names, vals: buf}, buf
}

// VehicleModel is a convenience preset: a magnetometer suite detecting
// targets of the given phenomenon kind, exposing channels "magnetic"
// (intensity) and "magnetic_detect" (thresholded detection).
func VehicleModel(kind string) *Model {
	m := NewModel()
	m.SetChannel("magnetic", IntensityChannel(kind, 1))
	m.SetChannel("magnetic_detect", DetectionChannel(kind))
	return m
}

// FireModel is a preset for fire sensing: "temperature" is ambient plus a
// strong contribution from fire targets; "light" detects flame.
func FireModel(kind string, ambient float64) *Model {
	m := NewModel()
	m.SetChannel("temperature", SumChannels(
		ConstantChannel(ambient),
		IntensityChannel(kind, 500),
	))
	m.SetChannel("light", DetectionChannel(kind))
	return m
}

// Func is a named boolean sensing condition — the sensee() predicate of
// Section 3.1 — evaluated over a mote's local Reading.
type Func func(Reading) bool

// Registry maps sensing-function names (as they appear in EnviroTrack
// activation statements) to implementations. The zero value is not usable;
// construct with NewRegistry.
type Registry struct {
	funcs map[string]Func
}

// NewRegistry returns a registry pre-populated with the library of common
// sensing functions the paper describes:
//
//	magnetic_sensor_reading  — magnetic detection channel fired
//	fire_sensor_reading      — temperature > 180 and light present
//	light_sensor_reading     — light channel above 0.5
//	motion_sensor_reading    — motion channel above 0.5
func NewRegistry() *Registry {
	r := &Registry{funcs: make(map[string]Func)}
	mustRegister := func(name string, fn Func) {
		if err := r.Register(name, fn); err != nil {
			panic(err) // unreachable: fresh registry, distinct names
		}
	}
	mustRegister("magnetic_sensor_reading", func(rd Reading) bool {
		v, ok := rd.Value("magnetic_detect")
		return ok && v > 0.5
	})
	mustRegister("fire_sensor_reading", func(rd Reading) bool {
		temp, okT := rd.Value("temperature")
		light, okL := rd.Value("light")
		return okT && okL && temp > 180 && light > 0.5
	})
	mustRegister("light_sensor_reading", func(rd Reading) bool {
		v, ok := rd.Value("light")
		return ok && v > 0.5
	})
	mustRegister("motion_sensor_reading", func(rd Reading) bool {
		v, ok := rd.Value("motion")
		return ok && v > 0.5
	})
	return r
}

// Register adds a user-defined sensing function. It returns an error if the
// name is already taken.
func (r *Registry) Register(name string, fn Func) error {
	if name == "" {
		return fmt.Errorf("sensor: empty function name")
	}
	if fn == nil {
		return fmt.Errorf("sensor: nil function for %q", name)
	}
	if _, ok := r.funcs[name]; ok {
		return fmt.Errorf("sensor: function %q already registered", name)
	}
	r.funcs[name] = fn
	return nil
}

// Lookup returns the named sensing function.
func (r *Registry) Lookup(name string) (Func, bool) {
	fn, ok := r.funcs[name]
	return fn, ok
}

// Names returns all registered function names, sorted.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.funcs))
	for name := range r.funcs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
