package chaos

import (
	"fmt"
	"time"

	"envirotrack/internal/geom"
	"envirotrack/internal/radio"
	"envirotrack/internal/simtime"
)

// Hooks connects the injector to the network under test: Fail/Restore
// crash and revive a node (the existing Mote.Fail/Restore), Position
// resolves a node's location for partition-side tests.
type Hooks struct {
	Fail     func(node int)
	Restore  func(node int)
	Position func(node radio.NodeID) (geom.Point, bool)
}

// Injector replays a Schedule on a simulation scheduler. Crash faults
// become scheduler callbacks at their onset/restore instants; loss, ramp,
// partition, and duplication faults are evaluated lazily against sim time
// through the radio.FaultInjector interface, so the injector never draws
// randomness and cannot perturb a run's RNG stream by itself.
type Injector struct {
	sc    Schedule
	hooks Hooks
}

// NewInjector validates the schedule and registers each crash/restore
// event on the scheduler schedFor returns for the victim node: a network
// routes a victim's faults onto the shard owning the victim, so the
// callback executes on the goroutine that owns the mote's state. Routing
// happens at setup time, before any event fires. The returned injector
// should be attached to the medium with radio.Medium.SetFaultInjector when
// the schedule carries loss, ramp, partition, or duplication faults
// (attaching it always is harmless).
func NewInjector(schedFor func(node int) *simtime.Scheduler, sc Schedule, hooks Hooks) (*Injector, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if len(sc.Crashes) > 0 && (hooks.Fail == nil || hooks.Restore == nil) {
		return nil, fmt.Errorf("chaos: schedule has crash faults but no Fail/Restore hooks")
	}
	if len(sc.Partitions) > 0 && hooks.Position == nil {
		return nil, fmt.Errorf("chaos: schedule has partition faults but no Position hook")
	}
	in := &Injector{sc: sc, hooks: hooks}
	for _, c := range sc.Crashes {
		c := c
		sched := schedFor(c.Node)
		sched.AtOwned(c.At, simtime.OwnerChaos, func() { in.hooks.Fail(c.Node) })
		if c.For > 0 {
			sched.AtOwned(c.At+c.For, simtime.OwnerChaos, func() { in.hooks.Restore(c.Node) })
		}
	}
	return in, nil
}

// active reports whether a fault window [at, at+for) covers now, with
// for == 0 meaning "until the end of the run".
func active(at, dur, now time.Duration) bool {
	return now >= at && (dur <= 0 || now < at+dur)
}

// LossProb implements radio.FaultInjector: the last-declared active step
// or ramp wins; without one the base probability passes through.
func (in *Injector) LossProb(now time.Duration, base float64) float64 {
	p := base
	for _, l := range in.sc.Losses {
		if active(l.At, l.For, now) {
			p = l.P
		}
	}
	for _, r := range in.sc.Ramps {
		if now >= r.Start && now < r.End {
			frac := float64(now-r.Start) / float64(r.End-r.Start)
			p = r.From + (r.To-r.From)*frac
		}
	}
	return p
}

// Linked implements radio.FaultInjector: a link is severed while any
// active partition line runs between its endpoints. Nodes with unknown
// positions are treated as unpartitioned.
func (in *Injector) Linked(now time.Duration, src, dst radio.NodeID) bool {
	for _, part := range in.sc.Partitions {
		if !active(part.At, part.For, now) {
			continue
		}
		a, okA := in.hooks.Position(src)
		b, okB := in.hooks.Position(dst)
		if !okA || !okB {
			continue
		}
		if (a.X < part.X) != (b.X < part.X) {
			return false
		}
	}
	return true
}

// DuplicateProb implements radio.FaultInjector: the last-declared active
// duplication clause wins; zero when none is active.
func (in *Injector) DuplicateProb(now time.Duration) float64 {
	p := 0.0
	for _, d := range in.sc.Dups {
		if active(d.At, d.For, now) {
			p = d.P
		}
	}
	return p
}
