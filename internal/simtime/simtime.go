// Package simtime implements the discrete-event scheduler that drives the
// simulated sensor network. All protocol timing (heartbeat periods, receive
// and wait timers, message airtime, CPU service times) is expressed as
// events on a single virtual clock, which makes runs deterministic and lets
// experiments cover minutes of simulated time in milliseconds of wall time.
//
// The scheduler is built to be allocation-free in steady state, because the
// group protocol is timer-dominated: every heartbeat a member hears stops
// and re-arms its receive timer, so a sweep-scale run cycles through tens of
// thousands of timers. Six design choices make that churn cheap:
//
//   - Events are stored by value in a 4-ary min-heap keyed on (at, seq);
//     nothing is allocated per scheduled event once the heap has grown to
//     the run's working size.
//   - Heap entries are 24-byte plain-old-data records (time, sequence, slot
//     index, generation) with no pointers. The callback, typed handler, and
//     payload of every event live in its pooled slot, which never moves, so
//     sift operations copy small scalar records with no write barriers and
//     the heap array stays dense in cache. The slots slice doubles as a
//     contiguous arena for event payloads: a run's entire timer population
//     occupies a handful of allocations.
//   - Timer handles are value types that reference a pooled slot inside the
//     scheduler. Slots are recycled through an intrusive free list, and a
//     generation counter guards against ABA: a handle that has fired or
//     been stopped can never fire, stop, or observe the slot's next tenant.
//   - Cancellation is lazy. Stop marks the slot released in O(1) and leaves
//     a tombstone in the heap, which is discarded when it reaches the top.
//     The heartbeat-churn Stop+After cycle is therefore O(1) amortized
//     instead of an O(log n) heap removal, and a tombstone lives at most
//     until its original deadline (or until a compaction sweep reclaims it
//     early when tombstones outnumber live events).
//   - Same-instant bursts share one heap entry. Handle-less typed events
//     (AtEventOwned, AfterEventOwned) scheduled back to back for the same
//     instant and owner join one run: a linked list of slots behind a
//     single heap entry keyed by the first member's (at, seq). A broadcast
//     landing on a hundred idle mote CPUs thus costs one push instead of a
//     hundred. When a member fires, the entry passes in place to the next
//     member under key (at, seq+1). This is exact: a member joins only
//     when no sequence number was drawn since the previous member, so the
//     members' seqs are consecutive and no other event can sort between
//     them. The handed-down key is still the heap minimum, so no sift is
//     needed, and a stop between members leaves the unfired rest pending
//     under the next member's key.
//   - A Deadline is a timer without a callback. It draws one sequence
//     number, exactly as a timer does, and occupies no slot or heap entry;
//     Pending compares its (at, seq) against the scheduler's firing cursor.
//     It answers as a no-op timer would, without the push, the tombstone
//     its re-arm leaves, or the compaction sweeps those tombstones force.
//     Being no heap event, it never sets where a ShardGroup window ends
//     (Run's idle skip reads the earliest pending event), as a no-op
//     timer could.
//
// Every scheduler is a shard of a ShardGroup (see shard.go), and
// ShardGroup.Run is its only run loop. Because tombstones are invisible to
// that loop, the total firing order of live events is exactly the (at,
// seq) order an eager-removal scheduler produces, bit for bit — the
// determinism guarantees of seeded runs are unaffected.
// TestSchedulerMatchesReferenceModel pins this, runs and deadlines
// included, against a sorted-slice reference model.
package simtime

import (
	"context"
	"errors"
	"time"
)

// ErrStopped is returned by ShardGroup.Run when the group was stopped:
// by ShardGroup.Stop, before or during the run.
var ErrStopped = errors.New("simtime: scheduler stopped")

// Callback is a function invoked when its event fires. It runs on the
// scheduler's (single) execution thread.
type Callback func()

// EventFunc is the handler of a typed-payload event scheduled with
// AtEventOwned and friends. The hot paths of the radio medium, the mote
// CPU, and the group protocol use it to schedule work without capturing
// closures: the handler is a package-level function and arg is a pooled
// record, so the schedule site allocates nothing. arg must be a
// pointer-shaped value — storing a pointer in an interface does not
// allocate.
type EventFunc func(arg any)

// callFunc is the typed handler of a closure event (AtOwned and friends):
// arg is the Callback itself, and a func value is pointer-shaped, so
// storing it in the slot allocates nothing.
func callFunc(arg any) { arg.(Callback)() }

// Timer is a handle to a scheduled event. It is a small value: copying it
// is cheap and the zero value is inert (Stop and Pending return false).
// Handles reference a pooled slot in the scheduler; once the timer fires or
// is stopped the slot is recycled, and a generation counter makes every
// outstanding copy of the old handle permanently dead — a stale handle can
// never stop or observe the slot's next occupant.
type Timer struct {
	s    *Scheduler
	slot int32 // slot index + 1; 0 marks the inert zero value
	gen  uint32
}

// Stop cancels the timer. It reports whether the timer was still pending:
// false means it already fired, was already stopped, or is the zero Timer.
func (t Timer) Stop() bool {
	if t.s == nil || t.slot == 0 {
		return false
	}
	s := t.s
	sl := &s.slots[t.slot-1]
	if sl.gen != t.gen || !sl.pending {
		return false
	}
	// Lazy cancellation: release the slot (invalidating the heap entry and
	// every copy of this handle via the generation bump) and leave the heap
	// entry behind as a tombstone.
	s.releaseSlot(t.slot - 1)
	s.live--
	s.tomb++
	s.maybeCompact()
	return true
}

// Pending reports whether the timer has not yet fired or been stopped.
func (t Timer) Pending() bool {
	if t.s == nil || t.slot == 0 {
		return false
	}
	sl := &t.s.slots[t.slot-1]
	return sl.gen == t.gen && sl.pending
}

// event is one heap entry, stored by value. It is a pointer-free 24-byte
// record: sift operations copy it with no write barriers, which is what
// keeps the heap hot path cache-dense. The event's callback and payload
// live in the slot it references.
type event struct {
	at  time.Duration
	seq uint64
	// slot is the pooled slot holding this event's callback and payload.
	slot int32
	// gen snapshots the slot generation at scheduling time; a mismatch at
	// pop time identifies the entry as a tombstone.
	gen uint32
}

// slotState is one pooled event slot: the stable home of an event's typed
// handler and payload while its heap entry migrates through sift
// operations.
type slotState struct {
	gen     uint32
	pending bool
	owner   Owner // scheduling subsystem, for the self-profiler
	// next links a free slot into the free list, and a pending run member
	// to the member after it (-1 when it is the run's last or no run).
	next int32
	fn   EventFunc
	arg  any
}

// Scheduler is a deterministic discrete-event executor. It is not safe for
// concurrent use: protocol code runs exclusively inside event callbacks.
type Scheduler struct {
	heap     []event
	slots    []slotState
	freeHead int32 // head of the intrusive slot free list, -1 when empty
	live     int   // scheduled events that have not fired or been stopped
	tomb     int   // cancelled events still occupying heap entries
	now      time.Duration
	seq      uint64
	// firedSeq is the seq of the last event fired at now, or the cursor a
	// window end leaves: 0 when no event at now has passed, seq when all
	// of them have. With now it forms the (at, seq) firing cursor that
	// Deadline.Pending compares against.
	firedSeq uint64
	// The open run: its last member's slot and generation, its instant,
	// and that member's seq. A handle-less typed event joins the run when
	// s.seq still equals runSeq (nothing was scheduled since) and the
	// instant, owner, and tail generation match. runSeq 0 means none.
	runTail int32
	runGen  uint32
	runAt   time.Duration
	runSeq  uint64
	// executed counts events that have fired; useful for sanity checks and
	// run-length accounting in tests.
	executed uint64
	// prof, when non-nil, receives per-owner event counts and callback
	// wall time (see profile.go). labelCtxs holds the prebuilt pprof
	// label contexts, one per owner.
	prof      *Profile
	labelCtxs *[NumOwners]context.Context

	// group is the ShardGroup this scheduler is a shard of (see
	// shard.go), whose stop flag it obeys. shardID is this scheduler's
	// index within the group and tags the self-profiler.
	group   *ShardGroup
	shardID int32
}

// newScheduler returns an empty shard of g with the clock at zero.
func newScheduler(g *ShardGroup, shardID int32) *Scheduler {
	return &Scheduler{freeHead: -1, group: g, shardID: shardID}
}

// Now returns the current virtual time. Shards of a ShardGroup keep local
// clocks: a callback sees its own shard's event time, which may differ
// from other shards' by up to the lookahead window.
func (s *Scheduler) Now() time.Duration { return s.now }

// Executed returns the number of events that have fired so far.
func (s *Scheduler) Executed() uint64 {
	return s.executed
}

// Len returns the number of pending events (cancelled tombstones that have
// not yet been drained from the heap are not counted).
func (s *Scheduler) Len() int {
	return s.live
}

// acquireSlot pops a slot from the free list (or grows the pool) and marks
// it pending. It returns the slot index and its current generation.
func (s *Scheduler) acquireSlot() (int32, uint32) {
	var idx int32
	if s.freeHead >= 0 {
		idx = s.freeHead
		s.freeHead = s.slots[idx].next
	} else {
		idx = int32(len(s.slots))
		s.slots = append(s.slots, slotState{})
	}
	sl := &s.slots[idx]
	sl.pending = true
	sl.next = -1
	return idx, sl.gen
}

// releaseSlot retires a slot: the generation bump invalidates the heap
// entry and every outstanding handle, the payload is dropped so the slot
// pins neither closures nor pooled records, and the slot joins the free
// list.
func (s *Scheduler) releaseSlot(idx int32) {
	sl := &s.slots[idx]
	sl.pending = false
	sl.gen++
	sl.fn = nil
	sl.arg = nil
	sl.next = s.freeHead
	s.freeHead = idx
}

// push appends ev and restores the heap invariant. The self-profiler
// counts the push against owner, beside the events it fires.
func (s *Scheduler) push(ev event, owner Owner) {
	s.heap = append(s.heap, ev)
	s.siftUp(len(s.heap) - 1)
	s.live++
	if s.prof != nil {
		s.prof.pushes[owner].Add(1)
	}
}

// schedule is the single scheduling core behind every At/After variant:
// clamp the deadline, draw a sequence number, fill a pooled slot (owner
// tag, typed handler and payload), and push the heap entry. It returns
// what a Timer handle needs; handle-less callers discard it.
func (s *Scheduler) schedule(at time.Duration, owner Owner, fn EventFunc, arg any) (int32, uint32, time.Duration) {
	// The clock and sequence counter are local even on a shard: every
	// schedule call on a shard happens on its own window goroutine (or on
	// the coordinator at a barrier, when no window runs), so the per-shard
	// (at, seq) order is deterministic without any shared state.
	if at < s.now {
		at = s.now
	}
	s.seq++
	idx, gen := s.acquireSlot()
	sl := &s.slots[idx]
	sl.owner = owner
	sl.fn = fn
	sl.arg = arg
	s.push(event{at: at, seq: s.seq, slot: idx, gen: gen}, owner)
	return idx, gen, at
}

// scheduleRun schedules a handle-less typed event. Back to back with the
// open run's last member — no seq drawn since, same instant, same owner —
// it joins that run behind the run's single heap entry; otherwise it is
// pushed and opens a run of its own.
func (s *Scheduler) scheduleRun(at time.Duration, owner Owner, fn EventFunc, arg any) {
	if at < s.now {
		at = s.now
	}
	if s.seq == s.runSeq && at == s.runAt && s.runSeq != 0 {
		if tail := &s.slots[s.runTail]; tail.gen == s.runGen && tail.owner == owner {
			s.seq++
			idx, gen := s.acquireSlot() // may grow s.slots: tail is stale now
			sl := &s.slots[idx]
			sl.owner = owner
			sl.fn = fn
			sl.arg = arg
			s.slots[s.runTail].next = idx
			s.runTail, s.runGen, s.runSeq = idx, gen, s.seq
			s.live++
			return
		}
	}
	idx, gen, at := s.schedule(at, owner, fn, arg)
	s.runTail, s.runGen, s.runAt, s.runSeq = idx, gen, at, s.seq
}

// AtOwned schedules fn to run at absolute virtual time at, attributed to
// owner by the self-profiler (OwnerNone when no subsystem claims it). Times
// in the past are clamped to "now" (the event fires next).
// Events scheduled for the same instant fire in scheduling order.
func (s *Scheduler) AtOwned(at time.Duration, owner Owner, fn Callback) Timer {
	idx, gen, _ := s.schedule(at, owner, callFunc, fn)
	return Timer{s: s, slot: idx + 1, gen: gen}
}

// AfterOwned is AtOwned relative to the current virtual time. Negative
// durations are treated as zero.
func (s *Scheduler) AfterOwned(d time.Duration, owner Owner, fn Callback) Timer {
	if d < 0 {
		d = 0
	}
	return s.AtOwned(s.Now()+d, owner, fn)
}

// AtEventOwned schedules a typed-payload event with no cancellation
// handle: fn is invoked with arg at virtual time at. With a package-level fn
// and a pooled pointer arg the call is allocation-free, which is why the
// radio and mote hot paths use it for delivery batches, CPU completions,
// and CSMA retries — none of which are ever cancelled. Back-to-back calls
// for the same instant and owner share one heap entry (see scheduleRun).
func (s *Scheduler) AtEventOwned(at time.Duration, owner Owner, fn EventFunc, arg any) {
	s.scheduleRun(at, owner, fn, arg)
}

// AfterEventOwned is AtEventOwned relative to the current time. Negative
// durations are treated as zero.
func (s *Scheduler) AfterEventOwned(d time.Duration, owner Owner, fn EventFunc, arg any) {
	if d < 0 {
		d = 0
	}
	s.scheduleRun(s.now+d, owner, fn, arg)
}

// AfterEventTimerOwned is AfterEventOwned with a cancellation handle, for
// hot-path timers that need Stop (e.g. the group protocol's pending
// heartbeat rebroadcast). Negative durations are treated as zero.
func (s *Scheduler) AfterEventTimerOwned(d time.Duration, owner Owner, fn EventFunc, arg any) Timer {
	if d < 0 {
		d = 0
	}
	idx, gen, _ := s.schedule(s.now+d, owner, fn, arg)
	return Timer{s: s, slot: idx + 1, gen: gen}
}

// drainTop discards tombstones at the heap top and reports whether a live
// event remains. Tombstones are only ever reclaimed here (and in compact),
// so the cost of a cancellation is paid at most once.
func (s *Scheduler) drainTop() bool {
	for len(s.heap) > 0 {
		ev := &s.heap[0]
		if s.slots[ev.slot].gen != ev.gen {
			s.popTop()
			s.tomb--
			continue
		}
		return true
	}
	return false
}

// popTop removes the heap top by value. Entries are pointer-free, so the
// vacated tail needs no clearing.
func (s *Scheduler) popTop() event {
	ev := s.heap[0]
	n := len(s.heap) - 1
	s.heap[0] = s.heap[n]
	s.heap = s.heap[:n]
	if n > 1 {
		s.siftDown(0)
	}
	return ev
}

// peek returns the shard's earliest live event without popping it, after
// draining tombstones off the top. The parallel executor uses it to find
// the globally earliest pending time across shards.
func (s *Scheduler) peek() (event, bool) {
	if !s.drainTop() {
		return event{}, false
	}
	return s.heap[0], true
}

// take removes the heap top's event for firing. A run member with a
// successor hands the entry to it in place under key (at, seq+1): the
// successor's seq is the next one drawn after the member's, so that key
// still precedes every other entry and the heap needs no sift.
func (s *Scheduler) take() event {
	ev := s.heap[0]
	if nx := s.slots[ev.slot].next; nx >= 0 {
		s.heap[0] = event{at: ev.at, seq: ev.seq + 1, slot: nx, gen: s.slots[nx].gen}
	} else {
		s.popTop()
	}
	return ev
}

// fire executes one taken event: the clock and firing cursor advance to
// it, and the slot payload is read and the slot released before the
// callback runs, so a callback that schedules new events observes a
// consistent pool.
func (s *Scheduler) fire(ev event) {
	s.now, s.firedSeq = ev.at, ev.seq
	sl := &s.slots[ev.slot]
	fn, arg, owner := sl.fn, sl.arg, sl.owner
	s.releaseSlot(ev.slot)
	s.live--
	s.executed++
	if s.prof != nil {
		s.runProfiled(owner, fn, arg)
	} else {
		fn(arg)
	}
}

// runWindow fires this shard's events with at < limit (at <= limit when
// inclusive), advancing the shard-local clock, and leaves the clock at
// the window end. It is the per-shard half of ShardGroup.Run and runs on
// the shard's window goroutine. Events scheduled during the window for
// times inside it fire in the same window. It returns early, with the
// clock at the last fired event, once the group is stopped; the stop flag
// is read before every event so a stop requested from a callback or from
// outside the run (a session's Stop) takes effect at once.
func (s *Scheduler) runWindow(limit time.Duration, inclusive bool) {
	for {
		if s.group.stop.Load() {
			return
		}
		if !s.drainTop() {
			break
		}
		ev := s.heap[0]
		if ev.at > limit || (!inclusive && ev.at == limit) {
			break
		}
		s.fire(s.take())
	}
	s.advanceTo(limit, inclusive)
}

// advanceTo moves the clock to limit at the end of a run interval in which
// every event before limit (at or before it when inclusive) has fired, and
// sets the firing cursor to match: past every seq drawn so far when the
// events at limit have fired, before all of them when none has.
func (s *Scheduler) advanceTo(limit time.Duration, inclusive bool) {
	switch {
	case inclusive && s.now <= limit:
		s.now, s.firedSeq = limit, s.seq
	case s.now < limit:
		s.now, s.firedSeq = limit, 0
	}
}

// Deadline is a callback-free timer: an instant in the scheduler's (at,
// seq) order that reports whether the scheduler has passed it. It stands
// in for a timer whose callback would do nothing and which is only ever
// asked Pending, and it answers exactly as that timer would — without a
// slot, a heap entry, or the tombstone a re-arm leaves. The zero value is
// not pending. The one thing it does not reproduce is a no-op timer's
// effect on ShardGroup.Run, whose idle skip ends a window one lookahead
// after the earliest pending heap event; a deadline never is that event.
type Deadline struct {
	s   *Scheduler
	at  time.Duration
	seq uint64
}

// DeadlineAfter returns a deadline d from now. Like a timer it draws a
// sequence number, so it ends any open run and orders against
// same-instant events exactly as a no-op timer scheduled here would.
// Negative durations are treated as zero.
func (s *Scheduler) DeadlineAfter(d time.Duration) Deadline {
	if d < 0 {
		d = 0
	}
	s.seq++
	return Deadline{s: s, at: s.now + d, seq: s.seq}
}

// Pending reports whether the scheduler has not yet reached the deadline:
// whether a no-op timer armed in its place would still be pending.
func (d Deadline) Pending() bool {
	s := d.s
	return s != nil && (d.at > s.now || d.at == s.now && d.seq > s.firedSeq)
}

// maybeCompact sweeps tombstones out of the heap when they outnumber live
// events. Cancelled far-future timers otherwise occupy heap entries until
// their original deadline; the sweep bounds heap growth at 2x the live set
// for any Stop pattern. Rebuilding the heap array does not perturb the pop
// order: (at, seq) is a total order, so any valid heap yields the same
// firing sequence.
func (s *Scheduler) maybeCompact() {
	if s.tomb <= 64 || s.tomb <= s.live {
		return
	}
	kept := s.heap[:0]
	for _, ev := range s.heap {
		if s.slots[ev.slot].gen != ev.gen {
			continue
		}
		kept = append(kept, ev)
	}
	s.heap = kept
	s.tomb = 0
	for i := (len(s.heap) - 2) / 4; i >= 0; i-- {
		s.siftDown(i)
	}
}

// eventLess orders events by (at, seq): time first, scheduling order for
// ties. This is the total order every determinism guarantee leans on.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp restores the 4-ary heap invariant after appending at index i.
func (s *Scheduler) siftUp(i int) {
	ev := s.heap[i]
	for i > 0 {
		p := (i - 1) / 4
		if !eventLess(&ev, &s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		i = p
	}
	s.heap[i] = ev
}

// siftDown restores the 4-ary heap invariant below index i. A 4-ary layout
// halves the tree depth of the binary heap, trading slightly more sibling
// comparisons (cache-friendly: the four children are adjacent) for fewer
// levels moved per push/pop.
func (s *Scheduler) siftDown(i int) {
	n := len(s.heap)
	ev := s.heap[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventLess(&s.heap[c], &s.heap[min]) {
				min = c
			}
		}
		if !eventLess(&s.heap[min], &ev) {
			break
		}
		s.heap[i] = s.heap[min]
		i = min
	}
	s.heap[i] = ev
}

// Ticker repeatedly invokes a callback at a fixed period until stopped. It
// is the virtual-time analogue of time.Ticker and is used for heartbeats,
// sensing scans, and report periods. Each tick is a typed event whose
// payload is the ticker, so a running ticker allocates nothing per tick.
type Ticker struct {
	s      *Scheduler
	period time.Duration
	owner  Owner
	fn     Callback
	timer  Timer
	done   bool
}

// NewTickerOwned schedules fn every period, with the first invocation one
// period from now; every tick is attributed to owner by the self-profiler.
// A non-positive period is rejected with a nil Ticker.
func NewTickerOwned(s *Scheduler, period time.Duration, owner Owner, fn Callback) *Ticker {
	if period <= 0 {
		return nil
	}
	t := &Ticker{s: s, period: period, owner: owner, fn: fn}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.timer = t.s.AfterEventTimerOwned(t.period, t.owner, tickerFire, t)
}

// tickerFire is the typed handler of a ticker's tick.
func tickerFire(arg any) {
	t := arg.(*Ticker)
	if t.done {
		return
	}
	t.fn()
	if !t.done { // fn may have stopped the ticker
		t.arm()
	}
}

// Stop cancels future invocations. It is idempotent.
func (t *Ticker) Stop() {
	if t == nil || t.done {
		return
	}
	t.done = true
	t.timer.Stop()
}

// Reset changes the period and restarts the ticker, with the next invocation
// one new period from now.
func (t *Ticker) Reset(period time.Duration) {
	if t == nil || period <= 0 {
		return
	}
	t.timer.Stop()
	t.done = false
	t.period = period
	t.arm()
}
