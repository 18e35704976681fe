package envirotrack_test

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"envirotrack"
)

// fieldHeapBudget caps the live heap per mote of a settled 10k-mote field,
// about 3% above the measured 762 B. Most motes never lead, hear a
// heartbeat, learn a leader or hold a directory entry, so their protocol
// state must cost nothing until it is first written.
const fieldHeapBudget = 785

func TestFieldHeapPerMote(t *testing.T) {
	_, perMote := settledField(t, 100, 100, 4, 1, "")
	t.Logf("live heap %.1f B per mote after settle, budget %d B", perMote, fieldHeapBudget)
	if perMote > fieldHeapBudget {
		t.Error("over budget")
	}
}

// fieldObjectsBudget caps the live heap objects per mote of a settled
// 10k-mote field, just above the measured 3.17: a mote's record, its
// type's runtime and tracking backend, and the role records, flood
// entries and leaders' state of the few motes near a target.
const fieldObjectsBudget = 3.2

func TestFieldLiveObjectsPerMote(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n, _ := settledField(t, 100, 100, 4, 1, "")
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(n)
	perMote := float64(int64(after.HeapObjects)-int64(before.HeapObjects)) / (100 * 100)
	t.Logf("%.2f live heap objects per mote after settle, budget %.2f", perMote, fieldObjectsBudget)
	if perMote > fieldObjectsBudget {
		t.Error("over budget")
	}
}

// fieldAllocsBudget caps the heap allocations per mote of building a
// 10k-mote field and attaching a context type to every mote. A mote's
// record (its CPU, radio node and stack) is one object, and attaching a
// type adds the type's runtime and tracking backend; wiring the layers
// together allocates nothing.
const fieldAllocsBudget = 4

func TestFieldAllocsPerMote(t *testing.T) {
	const cols, rows = 100, 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := envirotrack.New(
		envirotrack.WithGrid(cols, rows),
		envirotrack.WithCommRadius(2.5),
		envirotrack.WithSensing(envirotrack.VehicleSensing("vehicle")),
		envirotrack.WithSeed(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AttachContextAll(benchTrackerContext(envirotrack.NodeID(cols*rows - 1))); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perMote := float64(after.Mallocs-before.Mallocs) / (cols * rows)
	t.Logf("building and attaching the field made %.2f allocations per mote, budget %d", perMote, fieldAllocsBudget)
	if perMote > fieldAllocsBudget {
		t.Error("over budget")
	}
}

// smallFieldHeapBudgets cap, per tracking backend, the live heap per mote
// of a freshly built small field: the stress layout, 24x5 motes at
// communication radius 6 with a constrained CPU, the tracker attached to
// every mote and a pursuer past the top edge. Each budget sits about 3%
// above the measured figure (736.5 B leader, 958.6 B passive; no mote has
// heard a heartbeat yet, so no leader-backend mote holds a role record),
// so a change that costs a field this small even a few dozen bytes per
// mote, such as per-layer blocks each rounded up to whole pages, breaks
// it.
var smallFieldHeapBudgets = []struct {
	backend string
	budget  float64
}{
	{envirotrack.BackendLeader, 760},
	{envirotrack.BackendPassive, 985},
}

// TestSmallFieldHeapPerMote reads the least figure of three builds per
// backend: about one fresh test process in ten reads some 45 B per mote
// more on one build, at every commit, while repeated builds in one
// process read the same figure to the byte.
func TestSmallFieldHeapPerMote(t *testing.T) {
	for _, b := range smallFieldHeapBudgets {
		perMote := smallFieldHeap(t, b.backend)
		for i := 0; i < 2; i++ {
			perMote = min(perMote, smallFieldHeap(t, b.backend))
		}
		t.Logf("%s: live heap %.1f B per mote after set-up, budget %.0f B", b.backend, perMote, b.budget)
		if perMote > b.budget {
			t.Errorf("%s: over budget", b.backend)
		}
	}
}

// smallFieldHeap builds the small stress field on backend and returns its
// live heap per mote, pursuer included, over a baseline taken before
// construction.
func smallFieldHeap(t *testing.T, backend string) float64 {
	t.Helper()
	const cols, rows = 24, 5
	pursuer := envirotrack.NodeID(cols * rows)
	base := settledHeap()
	n, err := envirotrack.New(
		envirotrack.WithGrid(cols, rows),
		envirotrack.WithCommRadius(6),
		envirotrack.WithSensing(envirotrack.VehicleSensing("vehicle")),
		envirotrack.WithSeed(1),
		envirotrack.WithLossProb(0.05),
		envirotrack.WithMoteCPU(8*time.Millisecond, 6),
		envirotrack.WithBackend(backend),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AttachContextAll(benchTrackerContext(pursuer)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddMote(pursuer, envirotrack.Pt(cols-1, rows), nil); err != nil {
		t.Fatal(err)
	}
	perMote := float64(int64(settledHeap())-int64(base)) / (cols*rows + 1)
	runtime.KeepAlive(n)
	return perMote
}

// TestNodeRecordSize keeps a mote's record in its 416-byte size class on
// 64-bit hosts: every deployed mote is one record.
func TestNodeRecordSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit hosts")
	}
	if size := unsafe.Sizeof(envirotrack.Node{}); size > 416 {
		t.Errorf("unsafe.Sizeof(Node{}) = %d B, want <= 416 (its size class)", size)
	}
}

// settledHeap returns the bytes of live heap objects after two
// collections: objects parked in sync.Pool caches survive one collection
// in the pools' victim caches, and on a field this small they would move
// the figure by tens of bytes per mote.
func settledHeap() uint64 {
	runtime.GC()
	return liveHeap()
}
