package envirotrack_test

import "testing"

// fieldHeapBudget caps the live heap per mote of a settled 10k-mote field.
// Most motes never lead, learn a leader or hold a directory entry, so
// their protocol state must cost nothing until it is first written.
const fieldHeapBudget = 2400

func TestFieldHeapPerMote(t *testing.T) {
	if _, perMote := settledField(t, 100, 100, 4, 1, ""); perMote > fieldHeapBudget {
		t.Errorf("live heap %.0f B per mote after settle, budget %d B", perMote, fieldHeapBudget)
	}
}
