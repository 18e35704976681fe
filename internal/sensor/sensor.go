// Package sensor models the sensing hardware of a mote and the library of
// named boolean sensing functions (the paper's sensee() conditions) that
// context activation statements refer to. A mote periodically samples a
// Model, which derives named scalar channels ("magnetic", "temperature",
// "light", ...) from the phenomena field, and evaluates predicates over the
// resulting Reading.
//
// A scan does only the work its reading is read for. The channels a preset
// installs (VehicleModel, FireModel) are pure functions of the snapshot, so
// they are computed on the first Reading.Value call that names them and
// memoised for the rest of the scan. Channels installed through SetChannel
// are the caller's functions, whose support the model does not know and
// which may keep state, so they are eager: every scan evaluates each of
// them once, in name order, whether or not anything reads it.
package sensor

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"envirotrack/internal/geom"
	"envirotrack/internal/phenomena"
	"envirotrack/internal/simtime"
)

// Reading is one sample of a mote's local environment. A reading from
// Model.SampleInto is backed by the caller's Scratch and is valid only until
// that Scratch's next scan: during a sensing sweep, only for the duration of
// the scanner call. A reading from Model.Sample owns its values. The public
// Values map remains as a construction convenience for tests and ad-hoc
// readings. The instant, mote and position of a sampled reading are read
// through At, MoteID and Position, which its Scratch logs.
type Reading struct {
	Values map[string]float64
	at     time.Duration
	moteID int
	pos    geom.Point
	// scan backs a sampled reading: the model's channels and the values
	// computed so far in this scan.
	scan *Scratch
}

// At returns the instant the reading was sampled at.
func (r Reading) At() time.Duration {
	r.place()
	return r.at
}

// MoteID returns the id of the sampled mote.
func (r Reading) MoteID() int {
	r.place()
	return r.moteID
}

// Position returns the sampled mote's position.
func (r Reading) Position() geom.Point {
	r.place()
	return r.pos
}

// place logs, on a sampled reading, that the scan read where or when it
// was taken.
func (r Reading) place() {
	if r.scan != nil {
		r.scan.placed = true
	}
}

// Value returns the named channel's sample. On a sampled reading the first
// read of a preset channel computes it; later reads in the same scan
// return the memoised value.
func (r Reading) Value(name string) (float64, bool) {
	if r.Values != nil {
		v, ok := r.Values[name]
		return v, ok
	}
	if s := r.scan; s != nil {
		// The name table is sorted but tiny (a handful of channels), so a
		// linear scan beats a binary search's branch overhead.
		for i, n := range s.m.names {
			if n == name {
				return s.value(i), true
			}
		}
	}
	return 0, false
}

// Channels returns the number of sampled channels.
func (r Reading) Channels() int {
	if r.Values != nil {
		return len(r.Values)
	}
	if r.scan != nil {
		return len(r.scan.m.names)
	}
	return 0
}

// Scratch is the reusable state of one scan: the model, snapshot and
// position being sampled, and each channel's value with the scan that
// computed it. A sensing sweep owns one and samples every mote into it, so
// steady-state scans allocate nothing. A Scratch backs one reading at a
// time and is not safe for concurrent use.
type Scratch struct {
	m   *Model
	env *phenomena.Snapshot
	pos geom.Point
	// gen numbers the scans; done[i] == gen marks vals[i] as computed in
	// the current one.
	gen  uint64
	vals []float64
	done []uint64
	// placed records that the current scan's reading had its At, MoteID
	// or Position read.
	placed bool
}

// Unreached reports whether the current scan read only what it would read
// on any mote that no target's signature disc reaches, at any instant: the
// reading's At, MoteID and Position were not read, and every channel
// computed in the scan is a bounded preset channel that read 0. A scan of
// a model with an eager channel never qualifies, since every scan computes
// its eager channels.
func (s *Scratch) Unreached() bool {
	if s.placed {
		return false
	}
	for i, d := range s.done {
		if d == s.gen && (s.m.kinds[i] != bounded || s.vals[i] != 0) {
			return false
		}
	}
	return true
}

// value returns channel i's sample for the current scan, computing it on
// first use.
func (s *Scratch) value(i int) float64 {
	if s.done[i] != s.gen {
		s.vals[i] = s.m.fns[i](s.env, s.pos)
		s.done[i] = s.gen
	}
	return s.vals[i]
}

// ChannelFunc computes a scalar channel value at a position from the
// environment resolved at one instant, the snapshot the sweep resolved for
// that tick. How often it runs depends on how it was installed: a preset's
// channel runs at most once per scan, and only when a reader asks for it;
// a channel installed with SetChannel runs exactly once per scan of every
// live sensing mote (see the package comment).
type ChannelFunc func(env *phenomena.Snapshot, pos geom.Point) float64

// DetectionChannel returns 1 when a kind-k target's signature covers the
// position and 0 otherwise — the idealized threshold detector used in the
// paper's testbed. A preset built on it declares it bounded: it is 0
// outside every kind-k signature disc.
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
// to a channel, keyed by (seed, position, snapshot instant): it holds no
// state, so one noisy model can serve every shard of a run. Its key names
// no channel or mote, so give each noisy channel its own seed.
func WithNoise(fn ChannelFunc, stddev float64, seed int64) ChannelFunc {
	return func(env *phenomena.Snapshot, pos geom.Point) float64 {
		x, y, at := math.Float64bits(pos.X), math.Float64bits(pos.Y), uint64(env.At)
		u := simtime.Draw(seed, simtime.DrawNoise, x, y, at, 0)
		v := simtime.Draw(seed, simtime.DrawNoise, x, y, at, 1)
		// Box-Muller; 1-u lies in (0, 1], so the logarithm is finite.
		return fn(env, pos) + math.Sqrt(-2*math.Log(1-u))*math.Cos(2*math.Pi*v)*stddev
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
	kinds []chanKind
	// rev counts the channels installed, so a proof learned from scans of
	// the model can tell that it is stale.
	rev uint64
}

// chanKind is how a model computes a channel and what it knows of the
// channel's support.
type chanKind uint8

const (
	// eager channels were installed by SetChannel: computed on every scan,
	// support unknown.
	eager chanKind = iota
	// lazy channels are a preset's pure functions of the snapshot,
	// computed only when read, with unbounded support.
	lazy
	// bounded channels are lazy and 0 at every position outside every
	// target's signature disc (DetectionChannel).
	bounded
)

// NewModel returns an empty sensing model.
func NewModel() *Model {
	return &Model{}
}

// SetChannel installs or replaces a named channel. The channel is eager:
// every scan evaluates it once, in name order among the eager channels,
// whether or not anything reads it, so a channel that keeps state sees one
// call per scan. Replacing a preset's channel makes that channel eager
// too.
func (m *Model) SetChannel(name string, fn ChannelFunc) { m.set(name, fn, eager) }

func (m *Model) set(name string, fn ChannelFunc, kind chanKind) {
	m.rev++
	i := sort.SearchStrings(m.names, name)
	if i < len(m.names) && m.names[i] == name {
		m.fns[i], m.kinds[i] = fn, kind
		return
	}
	m.names = slices.Insert(m.names, i, name)
	m.fns = slices.Insert(m.fns, i, fn)
	m.kinds = slices.Insert(m.kinds, i, kind)
}

// Revision counts the channels ever installed in the model: it changes
// whenever SetChannel does.
func (m *Model) Revision() uint64 { return m.rev }

// Channels returns the channel names in sorted order.
func (m *Model) Channels() []string {
	out := make([]string, len(m.names))
	copy(out, m.names)
	return out
}

// Sample evaluates every channel at the given position against env into a
// freshly allocated reading that owns its values: it stays valid after
// later scans and never reads env again.
func (m *Model) Sample(env *phenomena.Snapshot, moteID int, pos geom.Point) Reading {
	sc := new(Scratch)
	rd := m.SampleInto(env, moteID, pos, sc)
	for i := range m.fns {
		sc.value(i)
	}
	sc.env = nil
	return rd
}

// SampleInto starts a scan of the model at pos against env in sc and
// returns the reading it backs; its At is env.At. It evaluates the eager
// (SetChannel) channels now, in sorted name order; a preset channel is
// computed on the reading's first Value call that names it. The reading
// reads env and sc until sc's next scan, so both must stay unchanged while
// the reading is in use, and the reading must not be kept past that.
func (m *Model) SampleInto(env *phenomena.Snapshot, moteID int, pos geom.Point, sc *Scratch) Reading {
	n := len(m.fns)
	if cap(sc.vals) < n {
		sc.vals, sc.done = make([]float64, n), make([]uint64, n)
	}
	sc.m, sc.env, sc.pos = m, env, pos
	sc.vals, sc.done = sc.vals[:n], sc.done[:n]
	sc.gen++
	sc.placed = false
	for i, kind := range m.kinds {
		if kind == eager {
			sc.value(i)
		}
	}
	return Reading{at: env.At, moteID: moteID, pos: pos, scan: sc}
}

// VehicleModel is a convenience preset: a magnetometer suite detecting
// targets of the given phenomenon kind, exposing channels "magnetic"
// (intensity) and "magnetic_detect" (thresholded detection). Both are
// computed only when read; magnetic_detect is bounded.
func VehicleModel(kind string) *Model {
	m := NewModel()
	m.set("magnetic", IntensityChannel(kind, 1), lazy)
	m.set("magnetic_detect", DetectionChannel(kind), bounded)
	return m
}

// FireModel is a preset for fire sensing: "temperature" is ambient plus a
// strong contribution from fire targets; "light" detects flame. Both are
// computed only when read; light is bounded.
func FireModel(kind string, ambient float64) *Model {
	m := NewModel()
	m.set("temperature", SumChannels(
		ConstantChannel(ambient),
		IntensityChannel(kind, 500),
	), lazy)
	m.set("light", DetectionChannel(kind), bounded)
	return m
}

// Func is a named boolean sensing condition — the sensee() predicate of
// Section 3.1 — evaluated over a mote's local Reading. It must be a
// deterministic, side-effect-free function of what it reads from the
// reading (see the package comment): a sensing sweep may skip a call whose
// result an earlier scan already proves.
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
