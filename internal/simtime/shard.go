// Spatially sharded execution: a ShardGroup partitions one run's event
// population across k >= 1 scheduler shards — each a full clone of the
// pooled 4-ary heap, its timer slots, and its free list — and executes
// them on separate goroutines. Each shard owns a local clock and sequence
// counter; only the stop flag is shared. A serial run is the one-shard
// group.
//
// Run executes several shards in conservative lookahead windows: every
// shard fires all of its events inside [T, T+delta), a barrier drains the
// cross-shard radio outboxes (whose entries are guaranteed to land at or
// after T+delta by the radio lookahead bound of one packet time — airtime
// plus propagation), and the window advances. This is a
// lower-bound-on-timestamp (LBTS) protocol with a constant lookahead.
// Every random draw is keyed by who draws it (Draw), so a k-shard run
// makes the serial run's draws; it leaves the serial run only where a
// shard senses the channel locally during a window, in the causal future
// of its first frame that reaches another shard. Reruns of one
// configuration are byte-identical. One shard has nothing to exchange,
// so it runs the whole interval as one window, in plain (at, seq) order. The group is the only way to build, run, stop,
// or profile a scheduler.
package simtime

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ShardGroup is the discrete-event executor of a run: k scheduler shards,
// each with its own clock, sequence counter, heap, and slot pool, driven
// by Run — in conservative lookahead windows on separate goroutines when
// k > 1. The only state the shards share is the stop flag. Outside Run the
// group is driven from one goroutine (setup, barrier work).
type ShardGroup struct {
	shards []*Scheduler
	// edge is the committed window edge: the time every shard has executed
	// up to. Run advances it at each barrier.
	edge time.Duration
	// stop is the group stop flag. It is atomic because a goroutine outside
	// the run (a session's Stop) may set it while shards execute; each
	// shard reads it before every event.
	stop atomic.Bool
	// windowCap, when set, bounds Run's idle skip: a window never
	// extends past the earliest cap time at or after its start (barrier
	// work such as series sampling stays on cadence). Called only on the
	// coordinator between windows.
	windowCap func(after time.Duration) (time.Duration, bool)
}

// NewShardGroup returns a group of k empty scheduler shards (k >= 1).
func NewShardGroup(k int) *ShardGroup {
	if k < 1 {
		k = 1
	}
	g := &ShardGroup{shards: make([]*Scheduler, k)}
	for i := range g.shards {
		g.shards[i] = newScheduler(g, int32(i))
	}
	return g
}

// Shards returns the number of shards in the group.
func (g *ShardGroup) Shards() int { return len(g.shards) }

// Shard returns shard i's scheduler. Motes owned by region i schedule all
// their protocol timers through it.
func (g *ShardGroup) Shard(i int) *Scheduler { return g.shards[i] }

// Now returns the group clock. With several shards it is the committed
// window edge: every shard has executed all of its events before it, and
// callbacks needing their own shard's time use the shard scheduler's Now.
// A lone shard runs each interval as one window, so its own clock is the
// group clock, live inside callbacks.
func (g *ShardGroup) Now() time.Duration {
	if len(g.shards) == 1 {
		return g.shards[0].now
	}
	return g.edge
}

// Executed returns the number of events fired across all shards. Call it
// only between windows (e.g. after a run), not while shards are executing.
func (g *ShardGroup) Executed() uint64 {
	var total uint64
	for _, s := range g.shards {
		total += s.executed
	}
	return total
}

// Len returns the number of pending events across all shards.
func (g *ShardGroup) Len() int {
	total := 0
	for _, s := range g.shards {
		total += s.live
	}
	return total
}

// windowJob is one lookahead window's work order for a shard worker.
type windowJob struct {
	limit     time.Duration
	inclusive bool
}

// Run executes the group until its clock reaches deadline. Several shards
// run on separate goroutines in conservative lookahead windows of width
// delta: every shard fires all of its events inside the current window,
// then the coordinator runs barrier (draining cross-shard mailboxes,
// merging buffered observability lanes, sampling series) and the window
// advances. delta must be a positive lower bound on the latency of any
// cross-shard interaction — the radio's airtime+PropDelay bound — or the
// barrier will observe already-late deliveries; a non-positive delta is an
// error. A lone shard ignores delta and runs the whole interval as one
// window. A non-nil barrier error aborts the run, and a Stop, from a
// callback or another goroutine, ends it with ErrStopped: every shard
// halts before its next event, and no further window runs.
//
// The final window is inclusive of the deadline: every event at or
// before it fires, and every clock ends at it. Barrier-drained deliveries
// that land at exactly the deadline get cleanup windows of their own
// until no shard holds an event at or before it.
func (g *ShardGroup) Run(deadline, delta time.Duration, barrier func(window time.Duration) error) error {
	// A lone shard exchanges nothing with other shards, so no lookahead
	// bounds its window.
	single := len(g.shards) == 1
	if !single && delta <= 0 {
		return fmt.Errorf("simtime: %d shards need a positive lookahead window, got %v", len(g.shards), delta)
	}

	// Within a window the shards are independent — cross-shard effects
	// only materialize at the barrier — so any execution interleaving of
	// the shard windows yields identical results (the byte-identical
	// rerun test pins this). With one schedulable CPU there is no
	// parallelism to buy, only preemption noise to pay: a worker
	// goroutine descheduled mid-window stalls the whole barrier. Degrade
	// gracefully to running every shard's window inline on the
	// coordinator, as a lone shard always does.
	var workers *shardWorkers
	if !single && runtime.GOMAXPROCS(0) > 1 {
		workers = startShardWorkers(g.shards)
		defer workers.stop()
	}

	T := g.edge
	for {
		if g.Stopped() {
			return ErrStopped
		}
		W := T + delta
		// Idle skip: at the window edge every mailbox is drained, so the
		// globally earliest pending event M is a hard floor — no shard
		// fires anything before it, and events fired from M onward cannot
		// deliver across shards before M+delta. Advancing the window
		// straight to M+delta (or the deadline when the heaps are empty)
		// therefore preserves the conservative bound while skipping the
		// empty windows whose barrier wakeups otherwise dominate sparse
		// workloads — the 10k sweep fires once per SensePeriod, not once
		// per delta.
		if m, ok := g.minEventTime(); !ok {
			W = deadline
		} else if m > T {
			W = m + delta
		}
		if g.windowCap != nil {
			if c, ok := g.windowCap(T); ok && c < W {
				if c < T+delta {
					c = T + delta
				}
				W = c
			}
		}
		last := false
		if single || W >= deadline {
			W, last = deadline, true
		}
		if workers == nil {
			for _, s := range g.shards {
				s.runWindow(W, last)
			}
		} else {
			workers.window(W, last)
		}
		g.edge = W
		if barrier != nil {
			if err := barrier(W); err != nil {
				g.stop.Store(true)
				return err
			}
		}
		if g.Stopped() {
			return ErrStopped
		}
		if last && !g.anyEventAtOrBefore(deadline) {
			return nil
		}
		T = W
	}
}

// shardWorkers runs shards 1..k-1 of a group on persistent goroutines,
// one per shard, fed one windowJob per window; the coordinator runs shard
// 0 inline. A run at the 10k-mote tier executes thousands of windows, so
// the per-window synchronization is two channel hops and a WaitGroup
// instead of fresh goroutine spawns.
type shardWorkers struct {
	shards []*Scheduler
	jobs   []chan windowJob
	wg     sync.WaitGroup
}

func startShardWorkers(shards []*Scheduler) *shardWorkers {
	w := &shardWorkers{shards: shards, jobs: make([]chan windowJob, len(shards))}
	for i := 1; i < len(shards); i++ {
		ch := make(chan windowJob, 1)
		w.jobs[i] = ch
		s := shards[i]
		go func() {
			for job := range ch {
				s.runWindow(job.limit, job.inclusive)
				w.wg.Done()
			}
		}()
	}
	return w
}

// window runs one window on every shard and returns when all have
// finished it.
func (w *shardWorkers) window(limit time.Duration, inclusive bool) {
	w.wg.Add(len(w.shards) - 1)
	for i := 1; i < len(w.shards); i++ {
		w.jobs[i] <- windowJob{limit: limit, inclusive: inclusive}
	}
	w.shards[0].runWindow(limit, inclusive)
	w.wg.Wait()
}

// stop releases the workers; each is parked between windows and exits.
func (w *shardWorkers) stop() {
	for _, ch := range w.jobs[1:] {
		close(ch)
	}
}

// DrawSite tags a place that draws; each passes its own, so no two sites
// share a key. The comments name the key each site passes; a transmission
// id (radio.Frame.ID) packs the sender and its send count, and a mote's
// key packs its id and draw count the same way.
type DrawSite uint64

const (
	DrawMote      DrawSite = iota + 1 // protocol timers: (mote << 32 | draw count)
	DrawCSMA                          // backoff: (transmission id, attempt)
	DrawLoss                          // iid loss: (transmission id, receiver)
	DrawDuplicate                     // chaos duplication: (transmission id)
	DrawNoise                         // sensor noise: (x bits, y bits, instant, pair half)
)

// Draw is the one random draw of a run: a uniform value in [0, 1), a pure
// function of the run seed, the site and the key of the one who draws.
// The SplitMix64 finalizer mixes the seed and site, then each key word
// (one golden-gamma step per word). With no stream position to depend
// on, a draw is the same on every shard layout and in every event order,
// and a perturbed run differs from its parent only in the causal future
// of the perturbation.
func Draw(seed int64, site DrawSite, key ...uint64) float64 {
	z := mix64(uint64(seed) + golden*uint64(site))
	for _, k := range key {
		z = mix64(z + golden ^ k)
	}
	return float64(z>>11) * 0x1p-53
}

// golden is the SplitMix64 increment (2^64 / phi).
const golden = 0x9e3779b97f4a7c15

// mix64 is the SplitMix64 finalizer.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// SetWindowCap bounds the lookahead executor's idle skip: no window ends
// later than the earliest cap time at or after the window's start. The
// network layer uses it to keep barrier-driven series samplers on their
// exact cadence; nil removes the cap. Set it before Run.
func (g *ShardGroup) SetWindowCap(f func(after time.Duration) (time.Duration, bool)) {
	g.windowCap = f
}

// minEventTime returns the earliest live event time across shards.
// Coordinator-only (it drains tombstones).
func (g *ShardGroup) minEventTime() (time.Duration, bool) {
	var min time.Duration
	found := false
	for _, s := range g.shards {
		if ev, ok := s.peek(); ok && (!found || ev.at < min) {
			min, found = ev.at, true
		}
	}
	return min, found
}

// anyEventAtOrBefore reports whether any shard still holds a live event
// at or before t. Coordinator-only (it drains tombstones).
func (g *ShardGroup) anyEventAtOrBefore(t time.Duration) bool {
	for _, s := range g.shards {
		if ev, ok := s.peek(); ok && ev.at <= t {
			return true
		}
	}
	return false
}

// Stop halts the group: every shard stops before its next event and no
// further window runs. It only sets the atomic stop flag, so any goroutine
// (a shard callback, or a session reacting to an external stop request)
// may call it while shards execute.
func (g *ShardGroup) Stop() { g.stop.Store(true) }

// Stopped reports whether the group has stopped: Stop was called or a
// barrier failed.
func (g *ShardGroup) Stopped() bool { return g.stop.Load() }

// SetProfile attaches a self-profile to every shard (nil detaches). With
// several shards the profile also gets a shard dimension (EnsureShards),
// tallying each shard's events under its index; a lone shard adds none, so
// a serial run's profile reports no shard table.
func (g *ShardGroup) SetProfile(p *Profile) {
	if p != nil && len(g.shards) > 1 {
		p.EnsureShards(len(g.shards))
	}
	for _, s := range g.shards {
		s.setProfile(p)
	}
}
