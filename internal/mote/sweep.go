package mote

import (
	"fmt"
	"math/bits"

	"envirotrack/internal/geom"
	"envirotrack/internal/phenomena"
	"envirotrack/internal/radio"
	"envirotrack/internal/sensor"
	"envirotrack/internal/simtime"
)

// Sweep drives the periodic sensing scan of the motes of one Env from one
// ticker on the env's scheduler. Every tick it resolves the field once
// into a sweep-owned snapshot, then samples each live sensing mote it
// visits against it in the order the motes were added, so the field's
// targets are positioned once per tick rather than once per mote, channel
// and target. After sampling a mote it calls the Scanner of each context
// type attached to it (HotState.Attach), in type-bit order. Sampling
// follows the sensor package's contract: a mote's SetChannel channels are
// evaluated on every scan, its preset channels only when a scanner reads
// them.
//
// Reach. A tick visits only the motes whose scan can do something: those
// in a cell of the sweep's geom.CellIndex that some target's signature
// disc covers (the radio's range queries use the same type), those with a
// sensing or leading bit set (the sweep's busy set, which HotState keeps),
// and those nothing yet proves quiet. It finds them a word of 64 sweep
// indices at a time, as the set bits of ^(skip &^ reach) | busy. A mote
// is proven quiet once an earlier scan, of another mote with the same
// model, found every type attached to the mote quiet (Scanner) while
// reading only what the sensor package calls unreached
// (sensor.Scratch.Unreached): then, by the sensing functions' contract,
// the skipped scan would have read the same values and done nothing. The
// proofs are dropped whenever a type is attached (HotState.Attach) or a
// model's channels change. A visited mote gets exactly the work of a full
// sweep, in the same order, so skipping changes no event or trace.
//
// The sweep holds no mote pointers. It walks dense rows built by Add (the
// motes' HotState rows, ids and models) and reads its busy set and the
// position, failure flag and attached word of its own rows from the env's
// HotState, so a scan touches only slices. A sweep runs on its env's
// scheduler and is not safe for concurrent use; a sharded network builds
// one per shard, each with its own snapshot, scratch, index and proofs.
type Sweep struct {
	env    *Env
	ticker *simtime.Ticker

	// rows, ids and models are parallel, one entry per sensing mote in add
	// order; a mote's index k in them is its sweep index.
	rows   []int32
	ids    []radio.NodeID
	models []*sensor.Model

	// cells indexes the rows' positions by sweep index, with about one
	// row per cell; built by Start.
	cells *geom.CellIndex
	// attaches is the HotState attach count the proofs were learned under.
	attaches uint64
	// proofs holds, per model, the types a quiet unreached scan proved
	// quiet under it; learned marks a tick that added to them.
	proofs  []proof
	learned bool
	// skip has bit k set when every type attached to row k is proven quiet
	// under its model; skipping is set when any bit is. reach is the tick's
	// set of rows in a cell that a signature disc overlaps.
	skip, reach bitset
	skipping    bool
	// busy is the first word of the sweep's busy set in the HotState
	// (HotState.addBusy), which has bit k set while row k has a sensing or
	// leading bit set.
	busy int

	// snap, scan and rd are the per-tick scratch: the resolved field, the
	// scan state each mote's channels are memoised in, and the reading
	// handed to its scanners. Reusing them makes a steady-state tick
	// allocation-free.
	snap phenomena.Snapshot
	scan sensor.Scratch
	rd   sensor.Reading
}

// proof records that a scan under model, at the model's revision rev,
// was unreached and found the types quiet.
type proof struct {
	model *sensor.Model
	rev   uint64
	types uint32
}

// NewSweep returns an empty sweep scanning motes of env against its field,
// every SensePeriod.
func NewSweep(env *Env) *Sweep {
	return &Sweep{env: env}
}

// Add appends a mote to the sweep; motes are scanned in the order they are
// added (networks add them in ascending id order). Motes without a sensing
// model are pure relays and are skipped. Every mote of a sweep must be
// built on the sweep's env, so it runs on the sweep's scheduler and has a
// row in the env's HotState, and be added before Start.
func (s *Sweep) Add(m *Mote) {
	if m.model == nil {
		return
	}
	if m.env != s.env {
		panic(fmt.Sprintf("mote: sweep: mote %d is built on another env", m.ID()))
	}
	if s.ticker != nil {
		panic(fmt.Sprintf("mote: sweep: mote %d added after Start", m.ID()))
	}
	s.rows = append(s.rows, m.row)
	s.ids = append(s.ids, m.ID())
	s.models = append(s.models, m.model)
}

// Start arms the sweep's ticker; the first scan runs one period from now.
// It is idempotent, and a sweep with no sensing motes arms nothing. Start
// trims the rows to their length, since append slack would stay live for
// the whole run, indexes their positions and opens the sweep's
// busy set in the HotState. It must not run while another sweep over the
// same HotState is scanning.
func (s *Sweep) Start() {
	if s.ticker != nil || len(s.rows) == 0 {
		return
	}
	s.rows, s.ids, s.models = exact(s.rows), exact(s.ids), exact(s.models)
	pts := make([]geom.Point, len(s.rows))
	for k, row := range s.rows {
		pts[k] = s.env.Hot.pos[row]
	}
	s.cells = geom.NewCellIndex(pts, 0)
	s.skip, s.reach = newBitset(len(s.rows)), newBitset(len(s.rows))
	s.busy = s.env.Hot.addBusy(s.rows)
	s.ticker = simtime.NewTickerOwned(s.env.Sched, SensePeriod, simtime.OwnerSense, s.tick)
}

// exact returns xs in a slice of capacity len(xs).
func exact[T any](xs []T) []T {
	if cap(xs) == len(xs) {
		return xs
	}
	return append(make([]T, 0, len(xs)), xs...)
}

// Stop halts the sweep's scans.
func (s *Sweep) Stop() {
	s.ticker.Stop()
	s.ticker = nil
}

// tick runs one scan of every live mote it visits against the field
// resolved at the scheduler's current time.
func (s *Sweep) tick() {
	s.env.Field.Resolve(s.env.Sched.Now(), &s.snap)
	h := s.env.Hot
	if s.attaches != h.attaches || s.stale() {
		s.attaches = h.attaches
		s.forget()
	}
	all := !s.skipping || !s.markReach()
	// The rows go by one word of the skip, reach and busy sets at a time:
	// a row must be visited unless it may be passed over (skip, not reach)
	// and is not busy, or on every row when nothing is proven.
	rows, skip, reach := s.rows, s.skip, s.reach
	busy := h.busy[s.busy : s.busy+len(skip)]
	for j := range skip {
		must := ^uint64(0)
		if !all {
			must = ^(skip[j] &^ reach[j])
		}
		if n := len(rows) - j<<6; n < 64 {
			must &= 1<<n - 1
		}
		for w := must | busy[j]; w != 0; {
			b := bits.TrailingZeros64(w)
			s.visit(j<<6+b, rows[j<<6+b])
			// A scan may set or clear a later row's busy bit.
			w = (must | busy[j]) &^ (2<<b - 1)
		}
	}
	if !all {
		reach.clear()
	}
	if s.learned {
		s.prove()
	}
}

// visit scans the mote at sweep index k and HotState row row, unless it
// is failed, and learns from the scan when its skip is not yet proven.
func (s *Sweep) visit(k int, row int32) {
	h := s.env.Hot
	if h.failed[row] {
		return
	}
	s.rd = s.models[k].SampleInto(&s.snap, int(s.ids[k]), h.pos[row], &s.scan)
	var quiet uint32
	if h.attached != nil {
		for w := h.attached[row]; w != 0; w &= w - 1 {
			b := bits.TrailingZeros32(w)
			if h.scanners[b].Scan(int(row), &s.rd) {
				quiet |= 1 << b
			}
		}
	}
	if !s.skip.has(k) && s.scan.Unreached() {
		s.learn(s.models[k], quiet)
	}
}

// stale reports whether a model with a proof changed its channels since.
func (s *Sweep) stale() bool {
	for _, p := range s.proofs {
		if p.model.Revision() != p.rev {
			return true
		}
	}
	return false
}

// forget drops every proof and with them every skip.
func (s *Sweep) forget() {
	s.proofs = s.proofs[:0]
	s.skip.clear()
	s.skipping = false
}

// learn records an unreached scan under m in which the types in the
// quiet mask were quiet.
func (s *Sweep) learn(m *sensor.Model, quiet uint32) {
	for i := range s.proofs {
		if p := &s.proofs[i]; p.model == m {
			if quiet&^p.types != 0 {
				p.types |= quiet
				s.learned = true
			}
			return
		}
	}
	s.proofs = append(s.proofs, proof{model: m, rev: m.Revision(), types: quiet})
	s.learned = true
}

// prove rebuilds the skip set from the proofs: a row may be skipped when
// its model has a proof covering every type attached to it and its
// position is finite: the index keeps a non-finite one in a clamped edge
// cell, which says nothing of the discs it lies in.
func (s *Sweep) prove() {
	s.learned, s.skipping = false, false
	h := s.env.Hot
	var last *sensor.Model
	var p *proof
	for k, row := range s.rows {
		if m := s.models[k]; m != last {
			last, p = m, nil
			for i := range s.proofs {
				if s.proofs[i].model == m {
					p = &s.proofs[i]
					break
				}
			}
		}
		var attached uint32
		if h.attached != nil {
			attached = h.attached[row]
		}
		if p == nil || attached&^p.types != 0 || !h.pos[row].Finite() {
			s.skip.unset(k)
			continue
		}
		s.skip.set(k)
		s.skipping = true
	}
}

// markReach sets the reach bit of every row in a cell that some active
// target's signature disc overlaps. It reports false, marking nothing
// more, when a disc covers every cell: every row is in reach then.
func (s *Sweep) markReach() bool {
	nx, ny := s.cells.Dims()
	for i := 0; i < s.snap.Targets(); i++ {
		x0, y0, x1, y1 := s.cells.Cover(s.snap.Disc(i))
		if x0 == 0 && y0 == 0 && x1 == nx-1 && y1 == ny-1 {
			s.reach.clear()
			return false
		}
		for y := y0; y <= y1; y++ {
			for _, k := range s.cells.Strip(y, x0, x1) {
				s.reach.set(int(k))
			}
		}
	}
	return true
}

// bitset is a fixed-size set of sweep indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) has(k int) bool { return b[k>>6]&(1<<(k&63)) != 0 }
func (b bitset) set(k int)      { b[k>>6] |= 1 << (k & 63) }
func (b bitset) unset(k int)    { b[k>>6] &^= 1 << (k & 63) }
func (b bitset) clear()         { clear(b) }
