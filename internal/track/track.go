// Package track defines the tracking-backend seam: the protocol interface
// the per-mote context runtime (internal/core) drives, and Lookup, which
// switches over the two backend names to pick a constructor. A backend
// owns the distributed part of entity tracking — discovering the tracked
// entity, maintaining a context label over the sensing group, and
// deciding which mote runs the context's objects — while the core
// runtime owns the middleware part (aggregate windows, object methods,
// directory registration), which is backend-agnostic.
//
// Backend A ("leader") is the EnviroTrack group-management protocol of
// internal/group (leader election, heartbeats, receive/wait timers):
// *group.Manager implements Backend itself.
// Backend B ("passive", internal/track/passive) implements the
// passive-traces algorithm of Marculescu et al.: trace deposition, gossip,
// and interpolation, with no leader and no heartbeats.
package track

import (
	"fmt"

	"envirotrack/internal/group"
	"envirotrack/internal/mote"
	"envirotrack/internal/radio"
	"envirotrack/internal/track/passive"
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

// Backend is the tracking-protocol interface the context runtime drives.
// Inputs arrive as sensing transitions (SetSensing), received frames
// (HandleFrame, called by the mote's stack), and virtual-clock timers the
// backend arms itself. Outputs are calls on the group.Runtime the
// backend was built with, and the obs events and coherence-ledger records
// of its embedded group.Base; report-lifecycle events carry radio.Corr
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
	// HandleFrame consumes a received frame of the backend's protocol and
	// context type, and returns false for any other frame, which the
	// stack then offers to the next type's backend.
	HandleFrame(f radio.Frame) bool
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

var (
	_ Backend = (*group.Manager)(nil)
	_ Backend = (*passive.Backend)(nil)
)

// Constructor builds a backend of context type t on mote m, driving rt;
// label events go to the ledger of the mote's env.
type Constructor func(m *mote.Mote, t *group.Type, rt group.Runtime) Backend

// Lookup returns the constructor of the named backend. The caller
// resolves an empty name to its default before calling, once per context
// type, not per mote.
func Lookup(name string) (Constructor, error) {
	switch name {
	case BackendLeader:
		return func(m *mote.Mote, t *group.Type, rt group.Runtime) Backend {
			return group.NewManager(m, t, rt)
		}, nil
	case BackendPassive:
		return func(m *mote.Mote, t *group.Type, rt group.Runtime) Backend {
			return passive.New(m, t, rt)
		}, nil
	}
	return nil, fmt.Errorf("track: unknown backend %q (have %v)", name, Names())
}

// Known reports whether Lookup has a backend of this name.
func Known(name string) bool {
	return name == BackendLeader || name == BackendPassive
}

// Names returns the backend names Lookup has, sorted.
func Names() []string { return []string{BackendLeader, BackendPassive} }
