package obs

import "sort"

// LaneSet buffers per-shard observability lanes for a free-running
// parallel run. Each shard emits through its own lane Bus — an
// unsynchronized append into a shard-exclusive buffer — and the
// coordinator calls Flush at every window barrier to merge the buffers
// into the real bus in timestamp order. Downstream sinks (the invariant
// checker, JSONL writers, metrics) therefore still observe one
// time-ordered stream per run, exactly as in serial mode, without any
// locking on the emission hot path.
//
// The merge is a stable sort keyed on the event timestamp: events with
// equal timestamps drain in (shard, emission) order, so a parallel run at
// a fixed seed and shard count produces a byte-identical stream on every
// rerun — the determinism-within-configuration contract the eval battery
// pins.
type LaneSet struct {
	real    *Bus
	lanes   []laneBuf
	scratch []Event
}

// laneBuf is one shard's buffered lane, padded so adjacent lanes don't
// share cache lines while shard goroutines append concurrently.
type laneBuf struct {
	bus *Bus
	evs []Event
	_   [64]byte
}

// laneSink appends emitted events into its lane's buffer.
type laneSink struct {
	buf *laneBuf
}

func (s laneSink) Emit(ev Event) { s.buf.evs = append(s.buf.evs, ev) }

// NewLaneSet builds k lanes feeding the given real bus at Flush time.
// Returns nil if the real bus is inactive (no sinks), so callers can gate
// lane plumbing on observation being on at all.
func NewLaneSet(real *Bus, k int) *LaneSet {
	if !real.Active() || k < 1 {
		return nil
	}
	ls := &LaneSet{real: real, lanes: make([]laneBuf, k)}
	for i := range ls.lanes {
		ls.lanes[i].bus = NewBus(laneSink{buf: &ls.lanes[i]})
	}
	return ls
}

// Bus returns shard i's lane bus (nil on a nil set: the run is
// unobserved). Everything owned by shard i — its motes, its medium
// context — emits through it; only shard i's goroutine may use it.
func (ls *LaneSet) Bus(i int) *Bus {
	if ls == nil {
		return nil
	}
	return ls.lanes[i].bus
}

// Flush merges all buffered lane events into the real bus in stable
// timestamp order and resets the lanes. Coordinator-only: every shard
// worker must be parked (window barrier) when it runs. The real bus
// stamps its own run tag on the way through. A nil set has nothing to
// flush.
func (ls *LaneSet) Flush() {
	if ls == nil {
		return
	}
	total := 0
	for i := range ls.lanes {
		total += len(ls.lanes[i].evs)
	}
	if total == 0 {
		return
	}
	buf := ls.scratch[:0]
	for i := range ls.lanes {
		buf = append(buf, ls.lanes[i].evs...)
		ls.lanes[i].evs = ls.lanes[i].evs[:0]
	}
	sort.SliceStable(buf, func(a, b int) bool { return buf[a].At < buf[b].At })
	for i := range buf {
		ls.real.Emit(buf[i])
		buf[i] = Event{}
	}
	ls.scratch = buf[:0]
}
