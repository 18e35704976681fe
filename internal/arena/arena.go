// Package arena provides run-local chunked block allocation for pooled
// simulation records. The simulator's hot-path pools (radio receptions,
// transmissions, CSMA retries, delivery batches, mote CPU tasks) recycle
// records through intrusive free lists; an Arena backs the pool *refills*,
// so the records of one run are laid out in a handful of contiguous blocks
// instead of scattered one-object heap allocations. That keeps free-list
// walks and record access cache-dense and cuts allocator pressure during a
// run's warm-up, when pools are still growing to their working size. A
// Slab does the same for variable-length runs of records, such as the
// radio medium's neighbor lists.
//
// Ownership rules: an Arena belongs to exactly one owner — one radio
// Medium, one mote — and is therefore confined to that owner's run.
// Parallel sweep workers each build their own simulation (scheduler,
// medium, motes), so each worker's arenas are private; nothing is shared
// and nothing is locked. Records allocated from an Arena are never freed
// individually: they cycle through the owner's free list and die with the
// run. Old blocks stay reachable through the records handed out, so a
// block is reclaimed by the GC only when the whole run is.
package arena

// Block growth bounds: the first refill allocates minBlock records and
// each subsequent block doubles, capping at maxBlock — small runs stay
// small, large runs amortize to one allocation per thousand records.
const (
	minBlock = 8
	maxBlock = 1024
)

// Arena is a chunked allocator for records of type T. The zero value is
// ready to use. Not safe for concurrent use; see the package comment for
// the single-owner confinement that makes that a non-issue.
type Arena[T any] struct {
	block []T
	used  int
	next  int
}

// New returns a pointer to a zero T carved from the current block,
// growing the arena by a fresh block when the current one is exhausted.
func (a *Arena[T]) New() *T {
	if a.used == len(a.block) {
		size := a.next
		if size < minBlock {
			size = minBlock
		}
		a.block = make([]T, size)
		a.used = 0
		if size < maxBlock {
			a.next = size * 2
		}
	}
	p := &a.block[a.used]
	a.used++
	return p
}

// maxSlabBlock caps a Slab's block. A slab carves runs of records, so its
// blocks grow past maxBlock: at the cap one allocation serves hundreds of
// runs.
const maxSlabBlock = 16 * maxBlock

// Slab is a chunked allocator for runs of T: Make carves a slice from the
// current block, and blocks grow like an Arena's, doubling from minBlock
// up to maxSlabBlock. A run longer than the next block gets a block of
// its own; the unused tail of a block is left behind. The zero value is
// ready to use, and the Arena's single-owner rules apply.
type Slab[T any] struct {
	free []T // the current block's uncarved tail
	next int
}

// Make returns a zeroed slice of length and capacity n carved from the
// current block, growing the slab by a fresh block when the run does not
// fit. Appending to the result reallocates it rather than overrunning the
// next run.
func (s *Slab[T]) Make(n int) []T {
	if n > len(s.free) {
		size := max(s.next, minBlock)
		if size < maxSlabBlock {
			s.next = size * 2
		}
		s.free = make([]T, max(size, n))
	}
	run := s.free[:n:n]
	s.free = s.free[n:]
	return run
}
