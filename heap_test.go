package envirotrack_test

import (
	"runtime"
	"testing"

	"envirotrack"
)

// fieldHeapBudget caps the live heap per mote of a settled 10k-mote field.
// Most motes never lead, learn a leader or hold a directory entry, so
// their protocol state must cost nothing until it is first written.
const fieldHeapBudget = 1480

func TestFieldHeapPerMote(t *testing.T) {
	if _, perMote := settledField(t, 100, 100, 4, 1, ""); perMote > fieldHeapBudget {
		t.Errorf("live heap %.0f B per mote after settle, budget %d B", perMote, fieldHeapBudget)
	}
}

// fieldAllocsBudget caps the heap allocations per mote of building a
// 10k-mote field and attaching a context type to every mote. Each layer
// of a mote's stack is one object; wiring the layers together allocates
// nothing.
const fieldAllocsBudget = 12

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
	if perMote := float64(after.Mallocs-before.Mallocs) / (cols * rows); perMote > fieldAllocsBudget {
		t.Errorf("building and attaching the field made %.2f allocations per mote, budget %d", perMote, fieldAllocsBudget)
	}
}
