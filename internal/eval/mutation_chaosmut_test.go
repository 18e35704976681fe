//go:build chaosmut

package eval

import "testing"

const protocolMutated = true

// TestMutationTripsDualLeader is the checker's self-test: built with
// -tags chaosmut, the group manager's same-label yield rule is disabled
// (mutationSuppressYield in internal/group), so concurrent leaders that
// would normally merge within a couple of heartbeats persist instead.
// The chaos suite must prove at least one dual-leader violation — if it
// cannot see this seeded bug, the invariant checker is vacuous.
func TestMutationTripsDualLeader(t *testing.T) {
	t.Parallel()
	rep, err := RunChaos(&Env{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	dual := 0
	for _, p := range rep.Points {
		for _, v := range p.Backends[0].ViolationList {
			if v.Invariant == "dual-leader" {
				dual++
				t.Logf("case %q seed %d run %d: %s at %v: %s", p.Case, p.Seed, v.Run, v.Invariant, v.At, v.Detail)
			}
		}
	}
	if dual == 0 {
		t.Fatal("yield-suppressed build produced no dual-leader violations: the checker cannot detect its target bug")
	}
}
