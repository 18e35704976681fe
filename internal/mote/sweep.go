package mote

import (
	"fmt"
	"math"
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
// in a grid cell that some target's signature disc overlaps, those with a
// sensing or leading bit set, and those nothing yet proves quiet. A mote
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
// motes' HotState rows, ids and models) and reads position, failure flag
// and the attached, sensing and leading words of its own rows from the
// env's HotState, so a scan touches only slices. A sweep runs on its env's
// scheduler and is not safe for concurrent use; a sharded network builds
// one per shard, each with its own snapshot, scratch, grid and proofs.
type Sweep struct {
	env    *Env
	ticker *simtime.Ticker

	// rows, ids and models are parallel, one entry per sensing mote in add
	// order; a mote's index k in them is its sweep index.
	rows   []int32
	ids    []radio.NodeID
	models []*sensor.Model

	// grid buckets the sweep indices of the rows with a finite position
	// into uniform cells, built by Start.
	grid grid
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
// every env.Config.SensePeriod.
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
		panic(fmt.Sprintf("mote: sweep: mote %d is built on another env", m.id))
	}
	if s.ticker != nil {
		panic(fmt.Sprintf("mote: sweep: mote %d added after Start", m.id))
	}
	s.rows = append(s.rows, m.row)
	s.ids = append(s.ids, m.id)
	s.models = append(s.models, m.model)
}

// Start arms the sweep's ticker; the first scan runs one period from now.
// It is idempotent, and a sweep with no sensing motes arms nothing. Start
// trims the rows to their length, since append slack would stay live for
// the whole run, and buckets them into the reach grid.
func (s *Sweep) Start() {
	if s.ticker != nil || len(s.rows) == 0 {
		return
	}
	s.rows, s.ids, s.models = exact(s.rows), exact(s.ids), exact(s.models)
	s.grid = newGrid(s.env.Hot.pos, s.rows)
	s.skip, s.reach = newBitset(len(s.rows)), newBitset(len(s.rows))
	s.ticker = simtime.NewTickerOwned(s.env.Sched, s.env.Config.SensePeriod, simtime.OwnerSense, s.tick)
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
	// A HotState no type is attached to has no leading word; its sensing
	// word is all clear then and stands in for it.
	sensing, leading := h.sensing, h.leading
	if leading == nil {
		leading = sensing
	}
	// The rows go by in blocks of 64, one word of the skip and reach sets:
	// pass holds the block's rows that may be passed over if their sensing
	// and leading bits are clear, in its low bit the current row's.
	rows, skip, reach := s.rows, s.skip, s.reach
	for j := range skip {
		lo := j << 6
		hi := min(lo+64, len(rows))
		var pass uint64
		if !all {
			pass = skip[j] &^ reach[j]
		}
		for k := lo; k < hi; k, pass = k+1, pass>>1 {
			row := rows[k]
			if pass&1 != 0 && sensing[row]|leading[row] == 0 {
				continue
			}
			s.visit(k, row)
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
// position is finite, so the grid holds it.
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
		if p == nil || attached&^p.types != 0 || !finite(h.pos[row]) {
			s.skip.unset(k)
			continue
		}
		s.skip.set(k)
		s.skipping = true
	}
}

// markReach sets the reach bit of every row in a cell that some active
// target's signature disc overlaps. It reports false, marking nothing
// more, when a disc covers the whole grid or cannot be placed on it: every
// row is in reach then.
func (s *Sweep) markReach() bool {
	g := &s.grid
	for i := 0; i < s.snap.Targets(); i++ {
		x0, y0, x1, y1, ok := g.cover(s.snap.Disc(i))
		if !ok || (x0 == 0 && y0 == 0 && x1 == g.nx-1 && y1 == g.ny-1) {
			s.reach.clear()
			return false
		}
		for y := y0; y <= y1; y++ {
			for c := y*g.nx + x0; c <= y*g.nx+x1; c++ {
				for _, k := range g.idx[g.start[c]:g.start[c+1]] {
					s.reach.set(int(k))
				}
			}
		}
	}
	return true
}

// grid buckets sweep indices into uniform square cells over the bounding
// box of their rows' positions, in the radio's spatial-hash idiom but
// stored CSR-style: cell c = cx + cy*nx holds idx[start[c]:start[c+1]],
// ascending. The side is chosen for about one row per cell.
type grid struct {
	minX, minY, side float64
	nx, ny           int
	start, idx       []int32
}

// newGrid buckets the rows whose position in pos is finite; the rest are
// in no cell.
func newGrid(pos []geom.Point, rows []int32) grid {
	g := grid{minX: math.Inf(1), minY: math.Inf(1)}
	maxX, maxY, n := math.Inf(-1), math.Inf(-1), 0
	for _, row := range rows {
		p := pos[row]
		if !finite(p) {
			continue
		}
		g.minX, g.minY = min(g.minX, p.X), min(g.minY, p.Y)
		maxX, maxY = max(maxX, p.X), max(maxY, p.Y)
		n++
	}
	if n == 0 {
		return grid{}
	}
	// About one row per cell over an area, or per side-length over a
	// line; the cell count stays within 2n+1 either way. A single point,
	// or a spread too wide for float64, makes one cell.
	w, h := maxX-g.minX, maxY-g.minY
	g.side = max(math.Sqrt(w*h/float64(n)), (w+h)/float64(n))
	g.nx, g.ny = 1, 1
	if g.side > 0 && !math.IsInf(g.side, 0) {
		g.nx, g.ny = int(w/g.side)+1, int(h/g.side)+1
	} else {
		g.side = 1
	}
	g.start = make([]int32, g.nx*g.ny+1)
	cells := make([]int32, len(rows))
	for k, row := range rows {
		cells[k] = -1
		if p := pos[row]; finite(p) {
			cells[k] = int32(g.cell(p.X-g.minX, g.nx) + g.cell(p.Y-g.minY, g.ny)*g.nx)
			g.start[cells[k]+1]++
		}
	}
	for c := 1; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	g.idx = make([]int32, n)
	fill := append([]int32(nil), g.start[:len(g.start)-1]...)
	for k, c := range cells {
		if c >= 0 {
			g.idx[fill[c]] = int32(k)
			fill[c]++
		}
	}
	return g
}

// cell returns the index, along an axis of n cells, of the cell holding
// offset d >= 0 from the grid's minimum.
func (g *grid) cell(d float64, n int) int {
	return int(min(d/g.side, float64(n-1)))
}

// cover returns the cell ranges, inclusive, that the bounding box of the
// disc overlaps. The box is padded well past the rounding of
// geom.Point.Within, which compares squared distances, so every finite
// position that Within puts in the disc lies in a covered cell. ok is
// false when the disc is not finite; an empty range (x0 > x1) means it
// lies off the grid.
func (g *grid) cover(c geom.Point, r float64) (x0, y0, x1, y1 int, ok bool) {
	r = math.Abs(r) // Within squares the radius
	r += 1e-9 * (1 + r + math.Abs(c.X) + math.Abs(c.Y))
	if !finite(c) || math.IsNaN(r) || math.IsInf(r, 0) {
		return 0, 0, 0, 0, false
	}
	x0, x1 = g.span(c.X-r-g.minX, c.X+r-g.minX, g.nx)
	y0, y1 = g.span(c.Y-r-g.minY, c.Y+r-g.minY, g.ny)
	return x0, y0, x1, y1, true
}

// span returns the cells, along an axis of n cells, that the offsets
// lo..hi from the grid's minimum overlap; empty (first > last) when none.
func (g *grid) span(lo, hi float64, n int) (first, last int) {
	if n == 0 || hi < 0 || lo/g.side >= float64(n) {
		return 1, 0
	}
	first, last = 0, n-1
	if lo > 0 {
		first = int(lo / g.side)
	}
	if hi/g.side < float64(n) {
		last = int(hi / g.side)
	}
	return first, last
}

func finite(p geom.Point) bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) && !math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// bitset is a fixed-size set of sweep indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) has(k int) bool { return b[k>>6]&(1<<(k&63)) != 0 }
func (b bitset) set(k int)      { b[k>>6] |= 1 << (k & 63) }
func (b bitset) unset(k int)    { b[k>>6] &^= 1 << (k & 63) }
func (b bitset) clear()         { clear(b) }
