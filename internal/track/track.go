// Package track defines the pluggable tracking-backend seam: the protocol
// interface the per-mote context runtime (internal/core) drives, plus a
// registry mapping backend names to constructors. A backend owns the
// distributed part of entity tracking — discovering the tracked entity,
// maintaining a context label over the sensing group, and deciding which
// mote runs the context's objects — while the core runtime owns the
// middleware part (aggregate windows, object methods, directory
// registration), which is backend-agnostic.
//
// Backend A ("leader") wraps the EnviroTrack group-management protocol of
// internal/group (leader election, heartbeats, receive/wait timers).
// Backend B ("passive", internal/track/passive) implements the
// passive-traces algorithm of Marculescu et al.: trace deposition, gossip,
// and interpolation, with no leader and no heartbeats.
package track

import (
	"fmt"
	"sort"
	"time"

	"envirotrack/internal/geom"
	"envirotrack/internal/group"
	"envirotrack/internal/mote"
	"envirotrack/internal/radio"
	"envirotrack/internal/trace"
)

// Canonical backend names.
const (
	// BackendLeader is the EnviroTrack group-management protocol
	// (Section 5.2 of the paper): leader election over the sensing group.
	BackendLeader = "leader"
	// BackendPassive is the passive-traces protocol: trace deposition and
	// gossip with a local estimator, no leader election.
	BackendPassive = "passive"
)

// Callbacks connect a tracking backend to the context runtime above it.
// Any field may be nil. The contract mirrors group.Callbacks but uses
// activation terminology: a backend "activates" the mote it selects to run
// the context's objects (the group leader, the passive estimator) and must
// pair every OnActivate with an eventual OnDeactivate for the same label.
// After Stop returns, a backend must invoke no further callbacks.
type Callbacks struct {
	// ReportPayload supplies the mote's current measurements when the
	// backend ships readings to the active mote.
	ReportPayload func() any
	// OnReport delivers a remote mote's readings to the active mote's
	// aggregation logic.
	OnReport func(from radio.NodeID, payload any)
	// OnActivate fires when the backend selects this mote to run the
	// context's objects for label, with the label's persistent state
	// (nil for a fresh label).
	OnActivate func(label group.Label, state []byte)
	// OnDeactivate fires when this mote stops running the context's
	// objects for label, for any reason.
	OnDeactivate func(label group.Label)
	// OnLabelDeleted fires when this mote deletes its own label as
	// spurious (merge/suppression); the middleware withdraws directory
	// registrations.
	OnLabelDeleted func(label group.Label)
}

// Deps is everything a backend constructor receives. Group carries the
// per-context protocol timing; non-leader backends derive their own
// periods from it (heartbeat period -> deposit period, etc.) so scenario
// knobs tune every backend consistently.
type Deps struct {
	Mote      *mote.Mote
	CtxType   string
	Group     group.Config
	Callbacks Callbacks
	Ledger    *trace.Ledger
}

// TraceSample is the payload a backend hands to Callbacks.OnReport when it
// integrates a remote position observation that is not a full readings
// report (the passive backend's gossiped traces). The core runtime folds
// it into position-input aggregate variables.
type TraceSample struct {
	MoteID radio.NodeID
	Pos    geom.Point
	At     time.Duration
}

// Backend is the tracking-protocol interface the context runtime drives.
// Inputs arrive as sensing transitions (SetSensing), received frames (the
// backend registers its own mote frame handler), and virtual-clock timers
// the backend arms itself. Outputs are the Callbacks plus the obs/ledger
// events the backend emits; report-lifecycle events must carry radio.Corr
// correlation headers so spans, ettrace, and the invariant checker work
// against any backend.
type Backend interface {
	// SetSensing informs the backend of the mote's current sensee()
	// evaluation. It must record the value in the mote's HotState sensing
	// bit for the backend's context type (mote.HotState.SetSensing), and
	// nothing else may write that bit: the runtime compares a scan's
	// result with the bit and calls only when they differ.
	SetSensing(sensing bool)
	// Sensing returns the last value supplied to SetSensing.
	Sensing() bool
	// Label returns the context label the mote currently participates in
	// (empty when none).
	Label() group.Label
	// Participating reports whether the mote currently takes part in the
	// protocol for some label (member or leader, depositor or estimator).
	Participating() bool
	// SetState updates the label's persistent application state; only the
	// active mote's calls need take effect.
	SetState(state []byte)
	// State returns the label's persistent state as known by this mote.
	State() []byte
	// Stop tears down all timers and silences the backend (end-of-run
	// cleanup); no callbacks may fire after it returns.
	Stop()
}

// Factory constructs a backend instance on one mote.
type Factory func(Deps) Backend

var registry = map[string]Factory{
	BackendLeader: newLeader,
}

// Register installs a backend constructor under name. Backends register
// from init(); duplicate names panic to surface wiring mistakes early.
func Register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("track: backend %q registered twice", name))
	}
	registry[name] = f
}

// New constructs the named backend ("" means the default leader backend).
func New(name string, d Deps) (Backend, error) {
	if name == "" {
		name = BackendLeader
	}
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("track: unknown backend %q (have %v)", name, Names())
	}
	return f(d), nil
}

// Known reports whether name is a registered backend ("" counts: it is the
// default).
func Known(name string) bool {
	if name == "" {
		return true
	}
	_, ok := registry[name]
	return ok
}

// Names returns the registered backend names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
