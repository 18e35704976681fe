// Package phenomena models the tracked entities of the physical
// environment: vehicles, fires, and other targets moving through the sensor
// field. Positions are pure functions of virtual time so that the
// environment is deterministic and needs no events of its own.
package phenomena

import (
	"fmt"
	"time"

	"envirotrack/internal/geom"
)

// Trajectory yields the position of an entity at a given virtual time.
type Trajectory interface {
	// PositionAt returns the entity position at time t.
	PositionAt(t time.Duration) geom.Point
	// Done reports whether the entity has reached the end of its path at t
	// (a stationary or cyclic trajectory is never done).
	Done(t time.Duration) bool
}

// Stationary is a trajectory that never moves.
type Stationary struct {
	At geom.Point
}

// PositionAt implements Trajectory.
func (s Stationary) PositionAt(time.Duration) geom.Point { return s.At }

// Done implements Trajectory.
func (s Stationary) Done(time.Duration) bool { return false }

// Line moves at constant speed from Start in the given direction, forever.
// Speed is in grid units per second ("hops per second" in the paper's
// terminology, since grid spacing is one hop).
type Line struct {
	Start geom.Point
	Dir   geom.Vector // normalized internally
	Speed float64     // grid units per second
}

// PositionAt implements Trajectory.
func (l Line) PositionAt(t time.Duration) geom.Point {
	d := l.Dir.Unit().Scale(l.Speed * t.Seconds())
	return l.Start.Add(d)
}

// Done implements Trajectory.
func (l Line) Done(time.Duration) bool { return false }

// Waypoints moves at constant speed through an ordered list of points and
// stops at the final one.
type Waypoints struct {
	Points []geom.Point
	Speed  float64 // grid units per second

	// legs caches cumulative leg start times; built by NewWaypoints or
	// when the trajectory is added to a Field, else on first use.
	legs []time.Duration
}

// NewWaypoints builds a waypoint trajectory. It returns an error for fewer
// than one point or a non-positive speed.
func NewWaypoints(pts []geom.Point, speed float64) (*Waypoints, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("phenomena: waypoint trajectory needs at least one point")
	}
	if speed <= 0 {
		return nil, fmt.Errorf("phenomena: speed must be positive, got %v", speed)
	}
	w := &Waypoints{Points: append([]geom.Point(nil), pts...), Speed: speed}
	w.buildLegs()
	return w, nil
}

// prepare builds the leg table unless it is already built.
func (w *Waypoints) prepare() {
	if len(w.legs) == 0 {
		w.buildLegs()
	}
}

func (w *Waypoints) buildLegs() {
	w.legs = make([]time.Duration, len(w.Points))
	var elapsed time.Duration
	for i := 1; i < len(w.Points); i++ {
		d := w.Points[i-1].Dist(w.Points[i])
		elapsed += time.Duration(d / w.Speed * float64(time.Second))
		w.legs[i] = elapsed
	}
}

// EndTime returns when the final waypoint is reached.
func (w *Waypoints) EndTime() time.Duration {
	w.prepare()
	return w.legs[len(w.legs)-1]
}

// PositionAt implements Trajectory.
func (w *Waypoints) PositionAt(t time.Duration) geom.Point {
	w.prepare()
	if t <= 0 || len(w.Points) == 1 {
		return w.Points[0]
	}
	if t >= w.EndTime() {
		return w.Points[len(w.Points)-1]
	}
	// Find the active leg.
	for i := 1; i < len(w.Points); i++ {
		if t < w.legs[i] {
			legDur := w.legs[i] - w.legs[i-1]
			frac := float64(t-w.legs[i-1]) / float64(legDur)
			return w.Points[i-1].Lerp(w.Points[i], frac)
		}
	}
	return w.Points[len(w.Points)-1]
}

// Done implements Trajectory.
func (w *Waypoints) Done(t time.Duration) bool {
	return t >= w.EndTime()
}

// Target is one tracked entity: a typed phenomenon following a trajectory
// with a sensory signature.
type Target struct {
	// Name identifies the target in traces ("tank-1").
	Name string
	// Kind is the phenomenon type sensed by motes ("vehicle", "fire").
	Kind string
	// Traj is the target's motion.
	Traj Trajectory
	// SignatureRadius is the distance (grid units) within which a sensor
	// detects the target — the "sensory signature" size of Section 6.2.
	SignatureRadius float64
	// Amplitude scales intensity readings (e.g. ferrous mass for magnetic
	// sensing, heat output for fire). 1 if zero.
	Amplitude float64
	// AppearsAt and DisappearsAt bound the target's presence in the field;
	// DisappearsAt zero means "never disappears".
	AppearsAt    time.Duration
	DisappearsAt time.Duration
}

// Active reports whether the target exists in the field at time t.
func (tg *Target) Active(t time.Duration) bool {
	if t < tg.AppearsAt {
		return false
	}
	if tg.DisappearsAt > 0 && t >= tg.DisappearsAt {
		return false
	}
	return true
}

// PositionAt returns the target position at t.
func (tg *Target) PositionAt(t time.Duration) geom.Point {
	return tg.Traj.PositionAt(t)
}

// amplitude returns the effective amplitude (defaulting to 1).
func (tg *Target) amplitude() float64 {
	if tg.Amplitude <= 0 {
		return 1
	}
	return tg.Amplitude
}

// Field is the collection of targets in the environment. It is read-only
// while a simulation runs: targets are added between runs, and every
// per-instant query goes through a Snapshot resolved from it.
type Field struct {
	targets []*Target
}

// NewField creates a field with the given targets.
func NewField(targets ...*Target) *Field {
	f := &Field{}
	for _, tg := range targets {
		f.Add(tg)
	}
	return f
}

// Add appends a target to the field. A waypoint trajectory's leg table is
// built here rather than on first use, so that concurrent Resolve calls
// (one per parallel shard sweep) only ever read the trajectory.
func (f *Field) Add(tg *Target) {
	if w, ok := tg.Traj.(*Waypoints); ok {
		w.prepare()
	}
	f.targets = append(f.targets, tg)
}

// Targets returns the targets (shared slice; callers must not mutate).
func (f *Field) Targets() []*Target {
	return f.targets
}

// Resolve fills s with the field as it stands at time t: one row per
// target active at t, in field order, holding its kind, position,
// signature radius and effective amplitude. Kinds are interned: the
// snapshot lists each distinct kind once, and a row holds its kind's
// index, so a query compares the kind string once per distinct kind, not
// once per row. It reuses s's storage, so a snapshot resolved every
// sensing period allocates only when the number of active targets or
// kinds exceeds every earlier resolve's.
func (f *Field) Resolve(t time.Duration, s *Snapshot) {
	s.At = t
	s.rows = s.rows[:0]
	s.kinds = s.kinds[:0]
	for _, tg := range f.targets {
		if !tg.Active(t) {
			continue
		}
		s.rows = append(s.rows, snapRow{
			kind:   s.intern(tg.Kind),
			pos:    tg.PositionAt(t),
			radius: tg.SignatureRadius,
			amp:    tg.amplitude(),
		})
	}
}

// Snapshot is a Field resolved at one instant (see Field.Resolve): the
// active targets' positions are computed once, and every mote's sensing
// channels read them. The zero value is an empty field at time 0.
type Snapshot struct {
	// At is the instant the snapshot was resolved at.
	At time.Duration
	// kinds holds the distinct kinds of the rows, in first-seen order.
	kinds []string
	rows  []snapRow
}

// snapRow is one active target at the snapshot's instant.
type snapRow struct {
	kind   int // index into Snapshot.kinds
	pos    geom.Point
	radius float64
	amp    float64
}

// intern returns kind's index in s.kinds, adding it when new.
func (s *Snapshot) intern(kind string) int {
	if k := s.kindIndex(kind); k >= 0 {
		return k
	}
	s.kinds = append(s.kinds, kind)
	return len(s.kinds) - 1
}

// kindIndex returns kind's index in s.kinds, or -1 when no row has it.
func (s *Snapshot) kindIndex(kind string) int {
	for k, kd := range s.kinds {
		if kd == kind {
			return k
		}
	}
	return -1
}

// Targets returns the number of active targets in the snapshot.
func (s *Snapshot) Targets() int { return len(s.rows) }

// Disc returns the center and radius of the signature disc of the
// snapshot's i-th active target, in field order: DetectsAny finds the
// target at exactly the positions p with p.Within(center, radius).
func (s *Snapshot) Disc(i int) (center geom.Point, radius float64) {
	return s.rows[i].pos, s.rows[i].radius
}

// DetectsAny reports whether any kind-k target's signature covers position
// pos.
func (s *Snapshot) DetectsAny(kind string, pos geom.Point) bool {
	k := s.kindIndex(kind)
	if k < 0 {
		return false
	}
	for i := range s.rows {
		r := &s.rows[i]
		if r.kind == k && r.pos.Within(pos, r.radius) {
			return true
		}
	}
	return false
}

// Intensity returns the summed sensory intensity of kind-k targets at
// position pos, using an inverse-cube law (the attenuation of magnetic
// disturbances cited in Section 6.1). Intensity at distances below 1 grid
// unit is clamped to the amplitude to avoid singularities. Rows are summed
// in field order.
func (s *Snapshot) Intensity(kind string, pos geom.Point) float64 {
	var total float64
	k := s.kindIndex(kind)
	if k < 0 {
		return total
	}
	for i := range s.rows {
		r := &s.rows[i]
		if r.kind != k {
			continue
		}
		d := r.pos.Dist(pos)
		if d < 1 {
			d = 1
		}
		total += r.amp / (d * d * d)
	}
	return total
}
