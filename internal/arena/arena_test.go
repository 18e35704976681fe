package arena

import (
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
