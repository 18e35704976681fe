package mote

import "envirotrack/internal/geom"

// HotState is the struct-of-arrays mirror of the per-mote fields the
// simulation touches every sensing tick and every series sample: position,
// failure flag, CPU-queue depth, and per-context-type membership and
// sensing bit-words. A network owns one HotState and registers every mote
// into it, so the sensing sweep and the series probes walk dense,
// id-ordered slices instead of chasing a map of mote pointers. The mote and
// group structs remain the cold/API layer; their accessors read through to
// the hot slices, which are the single source of truth for the mirrored
// fields.
//
// Context types are interned into bit positions (up to 32); the membership
// word of a mote is nonzero exactly when some group manager on it holds a
// role, which turns the group_size series probe into a scan over one
// []uint32. Registering a 33rd context type sets the overflow flag and
// callers fall back to the pointer-walking path, so the cap is a fast path,
// not a limit.
type HotState struct {
	pos     []geom.Point
	failed  []bool
	queued  []int32
	member  []uint32
	sensing []uint32
	// shard is the scheduler shard owning each mote's region under sharded
	// execution (all zero in serial runs). The hot state stays one
	// id-indexed arena — shards own motes, not slices — so cross-shard
	// readers like the sweep and the series probes need no indirection.
	shard []int32

	ctxBits  map[string]uint32 // context type -> single-bit mask
	overflow bool
}

// NewHotState returns an empty hot-state arena.
func NewHotState() *HotState {
	return &HotState{ctxBits: make(map[string]uint32)}
}

// Register adds a mote at the given position and returns its dense index.
func (h *HotState) Register(pos geom.Point) int {
	idx := len(h.pos)
	h.pos = append(h.pos, pos)
	h.failed = append(h.failed, false)
	h.queued = append(h.queued, 0)
	h.member = append(h.member, 0)
	h.sensing = append(h.sensing, 0)
	h.shard = append(h.shard, 0)
	return idx
}

// SetShard records the scheduler shard owning the mote at index i.
func (h *HotState) SetShard(i int, shard int32) { h.shard[i] = shard }

// Shard returns the scheduler shard owning the mote at index i (0 in
// serial runs).
func (h *HotState) Shard(i int) int32 { return h.shard[i] }

// Len returns the number of registered motes.
func (h *HotState) Len() int { return len(h.pos) }

// Pos returns the registered position of a mote.
func (h *HotState) Pos(i int) geom.Point { return h.pos[i] }

// Failed reports whether the mote at index i is currently failed.
func (h *HotState) Failed(i int) bool { return h.failed[i] }

// Queued returns the CPU-queue depth of the mote at index i.
func (h *HotState) Queued(i int) int { return int(h.queued[i]) }

// QueuedTotal sums the CPU-queue depths of every registered mote (the
// cpu_queue series column).
func (h *HotState) QueuedTotal() int {
	total := 0
	for _, q := range h.queued {
		total += int(q)
	}
	return total
}

// CtxMask interns a context type and returns its single-bit mask. The
// second result is false when the 32-type intern table has overflowed, in
// which case the mask is 0 (and Set* calls with it are no-ops).
func (h *HotState) CtxMask(ctxType string) (uint32, bool) {
	if m, ok := h.ctxBits[ctxType]; ok {
		return m, true
	}
	if len(h.ctxBits) >= 32 {
		h.overflow = true
		return 0, false
	}
	m := uint32(1) << uint(len(h.ctxBits))
	h.ctxBits[ctxType] = m
	return m, true
}

// Overflowed reports whether more than 32 context types were interned;
// when true the member/sensing words no longer cover every type and
// aggregate readers must fall back to walking the cold structs.
func (h *HotState) Overflowed() bool { return h.overflow }

// SetMember sets or clears the mote's membership bit for a context type
// (set whenever its group manager holds any role).
func (h *HotState) SetMember(i int, ctxType string, on bool) {
	m, ok := h.CtxMask(ctxType)
	if !ok {
		return
	}
	if on {
		h.member[i] |= m
	} else {
		h.member[i] &^= m
	}
}

// SetSensing sets or clears the mote's sensing bit for a context type
// (the last sensee() evaluation its group manager was told about).
func (h *HotState) SetSensing(i int, ctxType string, on bool) {
	m, ok := h.CtxMask(ctxType)
	if !ok {
		return
	}
	if on {
		h.sensing[i] |= m
	} else {
		h.sensing[i] &^= m
	}
}

// Sensing reports whether the mote's sensing bit under mask (a CtxMask
// result) is set.
func (h *HotState) Sensing(i int, mask uint32) bool { return h.sensing[i]&mask != 0 }

// MemberCountMask counts motes whose membership word intersects mask — the
// group_size series column, with mask the union of the attached context
// types' bits.
func (h *HotState) MemberCountMask(mask uint32) int {
	total := 0
	for _, w := range h.member {
		if w&mask != 0 {
			total++
		}
	}
	return total
}
