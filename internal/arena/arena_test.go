package arena

import (
	"slices"
	"testing"
	"unsafe"
)

type rec struct {
	id   int
	next *rec
}

func unsafePtr(p *rec) unsafe.Pointer { return unsafe.Pointer(p) }
func unsafeSize() uintptr             { return unsafe.Sizeof(rec{}) }

// TestArenaDistinctStable checks that every allocation is a distinct,
// stable, zeroed record: earlier pointers stay valid and keep their values
// as later blocks are carved.
func TestArenaDistinctStable(t *testing.T) {
	var a Arena[rec]
	const n = 5000 // spans several block doublings and the maxBlock cap
	ptrs := make([]*rec, n)
	seen := make(map[*rec]bool, n)
	for i := 0; i < n; i++ {
		p := a.New()
		if p.id != 0 || p.next != nil {
			t.Fatalf("allocation %d not zeroed: %+v", i, *p)
		}
		if seen[p] {
			t.Fatalf("allocation %d aliases an earlier record", i)
		}
		seen[p] = true
		p.id = i
		ptrs[i] = p
	}
	for i, p := range ptrs {
		if p.id != i {
			t.Fatalf("record %d corrupted: got id %d", i, p.id)
		}
	}
}

// TestArenaBlockGrowth checks the doubling-with-cap refill policy by
// counting contiguity runs: consecutive allocations within one block are
// adjacent in memory.
func TestArenaBlockGrowth(t *testing.T) {
	var a Arena[rec]
	prev := a.New()
	blockLens := []int{1}
	for i := 1; i < 3000; i++ {
		p := a.New()
		if uintptr(unsafePtr(p))-uintptr(unsafePtr(prev)) == unsafeSize() {
			blockLens[len(blockLens)-1]++
		} else {
			blockLens = append(blockLens, 1)
		}
		prev = p
	}
	want := []int{8, 16, 32, 64, 128, 256, 512, 1024, 960}
	if len(blockLens) != len(want) {
		t.Fatalf("block lengths %v, want %v", blockLens, want)
	}
	for i := range want {
		if blockLens[i] != want[i] {
			t.Fatalf("block %d has %d records, want %d (all: %v)", i, blockLens[i], want[i], blockLens)
		}
	}
}

func BenchmarkArenaAlloc(b *testing.B) {
	var a Arena[rec]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.New()
	}
}

// TestSlabRunsAreDisjoint checks that every run is zeroed, has capacity
// equal to its length, and shares no element with another run, across
// block refills and runs longer than a block.
func TestSlabRunsAreDisjoint(t *testing.T) {
	var s Slab[int]
	var runs [][]int
	for i := 0; i < 3000; i++ {
		n := i % 37
		if i%500 == 499 {
			n = 3 * maxSlabBlock // longer than any block
		}
		run := s.Make(n)
		if len(run) != n || cap(run) != n {
			t.Fatalf("run %d: len %d cap %d, want %d", i, len(run), cap(run), n)
		}
		for j := range run {
			if run[j] != 0 {
				t.Fatalf("run %d not zeroed at %d", i, j)
			}
			run[j] = i
		}
		runs = append(runs, run)
	}
	for i, run := range runs {
		for j, v := range run {
			if v != i {
				t.Fatalf("run %d element %d overwritten by run %d", i, j, v)
			}
		}
	}
	// Appending to a full run must not spill into the next one.
	a := s.Make(2)
	b := s.Make(2)
	_ = append(a, 7)
	if b[0] != 0 {
		t.Fatal("appending to a run overwrote the next run")
	}
}

// TestSlabBlockGrowth checks the refill policy: blocks double from
// minBlock up to maxSlabBlock, and a run longer than the next block gets
// a block of exactly its length, in place of that block.
func TestSlabBlockGrowth(t *testing.T) {
	var s Slab[rec]
	var blocks []int
	for i := 0; i < 3*maxSlabBlock; i++ {
		n := 1
		if i == 100 {
			n = 2 * maxSlabBlock
		}
		refill := n > len(s.free)
		s.Make(n)
		if refill {
			blocks = append(blocks, len(s.free)+n)
		}
	}
	want := []int{8, 16, 32, 64, 2 * maxSlabBlock, 256, 512, 1024, 2048, 4096, 8192, 16384, 16384, 16384}
	if !slices.Equal(blocks, want) {
		t.Fatalf("block sizes %v, want %v", blocks, want)
	}
}
