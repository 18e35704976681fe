package mote

import (
	"math/bits"

	"envirotrack/internal/geom"
	"envirotrack/internal/sensor"
)

// HotState is the struct-of-arrays home of the per-mote fields the
// simulation touches every sensing tick and every series sample: position,
// failure flag, CPU-queue depth, and per-context-type attachment,
// membership, sensing and leading bit-words. A network owns one HotState,
// shared by the Envs of all its shards, and New registers each mote's one
// row in it, so the sensing sweep and the series probes walk dense,
// row-indexed slices; the sweep reads a mote's struct only to build its
// rows. The mote and tracking-backend structs remain the cold/API layer;
// their accessors read the hot slices, which are the single source of
// truth for these fields.
//
// Context types are interned into bit positions, at most MaxContextTypes
// of them; the membership word of a mote is nonzero exactly when some
// group manager on it holds a role, which turns the group_size series
// probe into a scan over one []uint32. CtxMask refuses a type past the
// cap, and core.Stack.AttachContext rejects such a type as an input
// error, so every attached type has a bit. Each attached type also
// registers one Scanner (Attach), which the sweep calls for every mote
// whose attached word carries the type's bit, in bit order.
type HotState struct {
	pos     []geom.Point
	failed  []bool
	queued  []int32
	member  []uint32
	sensing []uint32

	// attached and leading are allocated by the first Attach, sized to the
	// rows registered by then: a HotState no type is attached to carries
	// neither. attached holds the bits of the types attached to a mote,
	// leading those of the types whose label it currently leads (kept by
	// the middleware, see SetLeading).
	attached []uint32
	leading  []uint32
	// scanners holds each attached type's Scanner, indexed by bit position.
	scanners []Scanner
	// attaches counts Attach calls: a sweep drops the skip proofs it
	// learned under an earlier count.
	attaches uint64

	// busy holds the sweeps' busy sets, one word-aligned window per
	// started sweep (Sweep.Start): bit slot[i] is set exactly when row i
	// has a sensing or leading bit set. slot is -1 for a row no started
	// sweep holds, and nil until the first sweep starts. Since no two
	// sweeps share a word, each sweep's shard writes only its own words.
	busy []uint64
	slot []int32

	ctxBits map[string]uint32 // context type -> single-bit mask
}

// A Scanner evaluates one context type on the sensing scans of the motes
// it is attached to. Scan gets the mote's HotState row and the scan's
// reading, which is the sweep's scratch: it is valid only for the
// duration of the call. A preset channel is computed by the first scanner
// that reads it in a scan and shared by the rest; a channel nobody reads
// is never computed.
//
// Scan reports whether the scan was quiet: the type did nothing at the
// row, and it evaluates the same side-effect-free function of the reading
// at every row it is attached to, so any row whose scan reads the same
// values, with its sensing and leading bits for the type clear, would be
// quiet too. The sweep skips a row only on a proof built from quiet scans
// (see Sweep).
type Scanner interface {
	Scan(row int, rd *sensor.Reading) (quiet bool)
}

// MaxContextTypes is the number of context types a HotState can intern:
// one bit each in the attached, membership, sensing and leading words.
const MaxContextTypes = 32

// NewHotState returns an empty hot-state arena.
func NewHotState() *HotState {
	return &HotState{ctxBits: make(map[string]uint32)}
}

// register adds a mote at the given position and returns its dense index.
func (h *HotState) register(pos geom.Point) int {
	idx := len(h.pos)
	h.pos = append(h.pos, pos)
	h.failed = append(h.failed, false)
	h.queued = append(h.queued, 0)
	h.member = append(h.member, 0)
	h.sensing = append(h.sensing, 0)
	if h.attached != nil {
		h.attached = append(h.attached, 0)
		h.leading = append(h.leading, 0)
	}
	if h.slot != nil {
		h.slot = append(h.slot, -1)
	}
	return idx
}

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
// second result is false, with mask 0, when MaxContextTypes other types
// are already interned.
func (h *HotState) CtxMask(ctxType string) (uint32, bool) {
	if m, ok := h.ctxBits[ctxType]; ok {
		return m, true
	}
	if len(h.ctxBits) >= MaxContextTypes {
		return 0, false
	}
	m := uint32(1) << uint(len(h.ctxBits))
	h.ctxBits[ctxType] = m
	return m, true
}

// SetMember sets or clears the mote's membership bit for the context
// type whose CtxMask is m (set whenever its tracking backend holds any
// role).
func (h *HotState) SetMember(i int, m uint32, on bool) {
	if on {
		h.member[i] |= m
	} else {
		h.member[i] &^= m
	}
}

// SetSensing sets or clears the mote's sensing bit for the context type
// whose CtxMask is m. The bit is the type's sensing state on the mote: the
// last sensee() evaluation its tracking backend was told about.
func (h *HotState) SetSensing(i int, m uint32, on bool) {
	if on {
		h.sensing[i] |= m
	} else {
		h.sensing[i] &^= m
	}
	h.markBusy(i)
}

// Sensing reports whether the mote's sensing bit under mask (a CtxMask
// result) is set.
func (h *HotState) Sensing(i int, mask uint32) bool { return h.sensing[i]&mask != 0 }

// Attach marks the mote at index i as carrying the context type whose
// CtxMask is mask, and installs sc as that type's scanner. Every row of a
// type shares one scanner: a later Attach of the type replaces it for all
// of them. It must not run while a sweep over h is scanning.
func (h *HotState) Attach(i int, mask uint32, sc Scanner) {
	if n := len(h.pos); len(h.attached) < n {
		// Sized exactly: append slack would stay live for the whole run.
		h.attached = append(make([]uint32, 0, n), h.attached...)[:n]
		h.leading = append(make([]uint32, 0, n), h.leading...)[:n]
	}
	b := bits.TrailingZeros32(mask)
	if len(h.scanners) <= b {
		h.scanners = append(h.scanners, make([]Scanner, b+1-len(h.scanners))...)
	}
	h.scanners[b] = sc
	h.attached[i] |= mask
	h.attaches++
}

// Scanner returns the scanner installed for the context type whose
// CtxMask is mask, or nil when no mote carries the type.
func (h *HotState) Scanner(mask uint32) Scanner {
	if b := bits.TrailingZeros32(mask); b < len(h.scanners) {
		return h.scanners[b]
	}
	return nil
}

// SetLeading sets or clears the mote's leading bit for the type whose
// CtxMask is mask. The middleware keeps it set exactly while the mote
// leads a label of the type, so a scan can tell that the type's runtime
// has leader work without loading it. The row must carry the type.
func (h *HotState) SetLeading(i int, mask uint32, on bool) {
	if on {
		h.leading[i] |= mask
	} else {
		h.leading[i] &^= mask
	}
	h.markBusy(i)
}

// Leading reports whether the mote's leading bit under mask is set.
func (h *HotState) Leading(i int, mask uint32) bool { return h.leadingWord(i)&mask != 0 }

// markBusy sets row i's bit in its sweep's busy set when the row has a
// sensing or leading bit set, and clears it otherwise.
func (h *HotState) markBusy(i int) {
	if i >= len(h.slot) || h.slot[i] < 0 {
		return
	}
	b := h.slot[i]
	if h.sensing[i]|h.leadingWord(i) != 0 {
		h.busy[b>>6] |= 1 << (b & 63)
	} else {
		h.busy[b>>6] &^= 1 << (b & 63)
	}
}

// leadingWord returns row i's leading word, 0 when no type is attached.
func (h *HotState) leadingWord(i int) uint32 {
	if i < len(h.leading) {
		return h.leading[i]
	}
	return 0
}

// addBusy opens a busy window of len(rows) bits for a sweep whose k-th
// row is rows[k], sets each bit from the row's current sensing and
// leading bits, and returns the window's first word. It must not run
// while a sweep over h is scanning.
func (h *HotState) addBusy(rows []int32) int {
	if n := len(h.pos); len(h.slot) < n {
		slot := make([]int32, n)
		for i := range slot {
			slot[i] = -1
		}
		copy(slot, h.slot)
		h.slot = slot
	}
	off := len(h.busy)
	// Sized exactly: append slack would stay live for the whole run.
	busy := make([]uint64, off+(len(rows)+63)/64)
	copy(busy, h.busy)
	h.busy = busy
	for k, row := range rows {
		h.slot[row] = int32(off<<6 + k)
		h.markBusy(int(row))
	}
	return off
}

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
