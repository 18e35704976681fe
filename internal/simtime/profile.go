// Scheduler self-profiling: every scheduled event carries the Owner of
// the subsystem that scheduled it, and an optional Profile accumulates
// per-subsystem event counts and wall-clock nanoseconds spent inside
// callbacks. The hook is designed to cost nothing when disabled — firing
// an event checks a single nil pointer — and the owner tag itself is a
// byte that rides in padding the slot already had, so tagging is free
// even in profiled-off runs. When profiling is on, callbacks additionally run
// under runtime/pprof goroutine labels (subsystem=<owner>), so CPU
// profiles captured with -cpuprofile can be grouped by subsystem.
//
// Wall-clock measurement never feeds back into the simulation (the
// virtual clock is untouched), so profiling cannot perturb a run's
// event order or its draws.
package simtime

import (
	"context"
	"runtime/pprof"
	"sync/atomic"
	"time"
)

// Owner identifies the subsystem that scheduled an event. It is the
// self-profiler's attribution taxonomy; OwnerNone covers test harnesses
// and callers that predate tagging. The transport layer is purely
// reactive (it never schedules events of its own), so it has no owner.
type Owner uint8

const (
	OwnerNone      Owner = iota // untagged callers, test harnesses
	OwnerRadio                  // frame delivery batches, receptions, CSMA retries, tx-done
	OwnerMote                   // CPU service-time completions
	OwnerGroup                  // heartbeat/creation/receive/wait/report timers, flood forwards
	OwnerRouting                // pooled local deliveries
	OwnerDirectory              // registration retransmits, query timeouts
	OwnerApp                    // context-object method timers, cross traffic
	OwnerSense                  // the consolidated sensing sweep
	OwnerSeries                 // the time-series sampler tick
	OwnerChaos                  // fault-schedule crash/restore callbacks

	// NumOwners sizes per-owner accumulator arrays.
	NumOwners = int(OwnerChaos) + 1
)

var ownerNames = [NumOwners]string{
	"other", "radio", "mote", "group", "routing",
	"directory", "app", "sense", "series", "chaos",
}

// String returns the owner's subsystem name as used in metrics labels,
// pprof labels, and the -selfprofile table.
func (o Owner) String() string {
	if int(o) < len(ownerNames) {
		return ownerNames[o]
	}
	return "other"
}

// Profile accumulates per-subsystem event counts, heap pushes, and
// wall-clock time.
// Counters are atomic so one Profile may be shared by many schedulers
// running on different goroutines (e.g. every run of a parallel sweep),
// merging their attribution into a single table.
type Profile struct {
	counts [NumOwners]atomic.Uint64
	nanos  [NumOwners]atomic.Int64
	// pushes counts heap entries pushed per owner. Events that join a
	// same-instant run fire without a push of their own, so pushes per
	// event below one shows work batched behind shared heap entries.
	pushes [NumOwners]atomic.Uint64

	// shardCounts/shardNanos, when non-empty, additionally attribute
	// every event to the scheduler shard that executed it (EnsureShards
	// sizes them; sharded runs tag their profiles this way). Serial
	// schedulers report as shard 0.
	shardCounts []atomic.Uint64
	shardNanos  []atomic.Int64
}

// NewProfile returns an empty profile.
func NewProfile() *Profile { return &Profile{} }

func (p *Profile) add(o Owner, d time.Duration) {
	p.counts[o].Add(1)
	p.nanos[o].Add(int64(d))
}

// EnsureShards sizes the per-shard attribution dimension to at least k
// shards. It must be called before the profile is shared across running
// schedulers (growing the slices concurrently with addShard would race).
func (p *Profile) EnsureShards(k int) {
	if k > len(p.shardCounts) {
		counts := make([]atomic.Uint64, k)
		nanos := make([]atomic.Int64, k)
		for i := range p.shardCounts {
			counts[i].Store(p.shardCounts[i].Load())
			nanos[i].Store(p.shardNanos[i].Load())
		}
		p.shardCounts, p.shardNanos = counts, nanos
	}
}

func (p *Profile) addShard(shard int32, d time.Duration) {
	if int(shard) < len(p.shardCounts) {
		p.shardCounts[shard].Add(1)
		p.shardNanos[shard].Add(int64(d))
	}
}

// ShardStat is one scheduler shard's accumulated attribution.
type ShardStat struct {
	Shard     int
	Events    uint64
	WallNanos int64
}

// ShardSnapshot returns per-shard totals in shard order, or nil when the
// profile has no shard dimension (EnsureShards was never called).
func (p *Profile) ShardSnapshot() []ShardStat {
	if len(p.shardCounts) == 0 {
		return nil
	}
	out := make([]ShardStat, len(p.shardCounts))
	for i := range out {
		out[i] = ShardStat{
			Shard:     i,
			Events:    p.shardCounts[i].Load(),
			WallNanos: p.shardNanos[i].Load(),
		}
	}
	return out
}

// OwnerStat is one subsystem's accumulated attribution.
type OwnerStat struct {
	Owner  Owner
	Name   string
	Events uint64
	// Pushes counts the scheduler heap entries the subsystem's events
	// took: at most Events, fewer when same-instant runs shared entries.
	Pushes    uint64
	WallNanos int64
}

// Snapshot returns per-subsystem totals in taxonomy order, including
// subsystems that executed nothing (Events == 0).
func (p *Profile) Snapshot() []OwnerStat {
	out := make([]OwnerStat, NumOwners)
	for i := range out {
		o := Owner(i)
		out[i] = OwnerStat{
			Owner:     o,
			Name:      o.String(),
			Events:    p.counts[i].Load(),
			Pushes:    p.pushes[i].Load(),
			WallNanos: p.nanos[i].Load(),
		}
	}
	return out
}

// TotalEvents sums event counts across all subsystems.
func (p *Profile) TotalEvents() uint64 {
	var t uint64
	for i := range p.counts {
		t += p.counts[i].Load()
	}
	return t
}

// TotalNanos sums wall-clock nanoseconds across all subsystems.
func (p *Profile) TotalNanos() int64 {
	var t int64
	for i := range p.nanos {
		t += p.nanos[i].Load()
	}
	return t
}

// Reset zeroes every accumulator (the shard dimension keeps its size).
func (p *Profile) Reset() {
	for i := range p.counts {
		p.counts[i].Store(0)
		p.nanos[i].Store(0)
		p.pushes[i].Store(0)
	}
	for i := range p.shardCounts {
		p.shardCounts[i].Store(0)
		p.shardNanos[i].Store(0)
	}
}

// setProfile attaches (or, with nil, detaches) a profile; the group's
// SetProfile calls it on every shard. While attached, fire times every
// callback with the wall clock, charges it to the event's owner, and runs
// it under a pprof goroutine label subsystem=<owner>. The label contexts
// are prebuilt here so the per-event cost is two label swaps and one
// clock read.
func (s *Scheduler) setProfile(p *Profile) {
	s.prof = p
	if p == nil {
		s.labelCtxs = nil
		return
	}
	ctxs := new([NumOwners]context.Context)
	for i := range ctxs {
		ctxs[i] = pprof.WithLabels(context.Background(),
			pprof.Labels("subsystem", Owner(i).String()))
	}
	s.labelCtxs = ctxs
}

// runProfiled executes one event under timing and pprof labels. It is
// kept out of fire so the unprofiled path stays small.
func (s *Scheduler) runProfiled(owner Owner, fn Callback, pfn EventFunc, arg any) {
	pprof.SetGoroutineLabels(s.labelCtxs[owner])
	start := time.Now()
	if fn != nil {
		fn()
	} else if pfn != nil {
		pfn(arg)
	}
	d := time.Since(start)
	s.prof.add(owner, d)
	s.prof.addShard(s.shardID, d)
	pprof.SetGoroutineLabels(context.Background())
}
