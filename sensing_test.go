package envirotrack

import (
	"fmt"
	"testing"
	"time"

	"envirotrack/internal/mote"
)

// crossingTarget is a vehicle crossing buildNet's 8x3 field along y = 1.
func crossingTarget(t *testing.T) *Target {
	t.Helper()
	traj, err := NewWaypoints([]Point{Pt(-1, 1), Pt(8, 1)}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return &Target{Name: "tank", Kind: "vehicle", Traj: traj, SignatureRadius: 1.6}
}

// TestSensingBitMirrorsBackend pins the invariant the context runtime's
// SetSensing skip rests on: after every second of a Figure 3-style run, on
// both backends, serial and at 2 shards, every runtime's Backend().Sensing()
// equals the mote's HotState sensing bit for the type.
func TestSensingBitMirrorsBackend(t *testing.T) {
	for _, backend := range []string{BackendLeader, BackendPassive} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", backend, shards), func(t *testing.T) {
				n := buildNet(t, WithBackend(backend), WithParallelShards(shards))
				if err := n.AttachContextAll(trackerContext(100, nil)); err != nil {
					t.Fatal(err)
				}
				if _, err := n.AddMote(100, Pt(7, 3), nil); err != nil {
					t.Fatal(err)
				}
				n.AddTarget(crossingTarget(t))
				sensed := 0
				for s := 0; s < 20; s++ {
					if err := n.Run(time.Second); err != nil {
						t.Fatal(err)
					}
					for _, id := range n.Nodes() {
						rt, ok := n.nodes[id].stack.Runtime("tracker")
						if !ok {
							continue
						}
						h, i := n.nodes[id].mote.Hot()
						mask, ok := h.CtxMask("tracker")
						if !ok {
							t.Fatal("the tracker type has no hot-state bit")
						}
						bit, be := h.Sensing(i, mask), rt.Backend().Sensing()
						if bit != be {
							t.Fatalf("at %v mote %d: sensing bit %v, backend Sensing() %v", n.Now(), id, bit, be)
						}
						if bit {
							sensed++
						}
					}
				}
				if sensed == 0 {
					t.Fatal("no mote ever sensed the target")
				}
			})
		}
	}
}

// TestAttachRejectsContextTypePastLimit attaches the most context types
// the hot state has bits for and checks the next one is refused as an
// input error, so no attached type is left without a sensing bit.
func TestAttachRejectsContextTypePastLimit(t *testing.T) {
	n := buildNet(t)
	for i := 0; i < mote.MaxContextTypes; i++ {
		spec := ContextType{
			Name:       fmt.Sprintf("idle%02d", i),
			Activation: func(Reading) bool { return false },
		}
		if err := n.AttachContextAll(spec); err != nil {
			t.Fatalf("context type %d: %v", i, err)
		}
	}
	var reports []Point
	if err := n.AttachContextAll(trackerContext(100, &reports)); err == nil {
		t.Fatalf("context type %d attached; want an error past the limit", mote.MaxContextTypes+1)
	}
	for _, id := range n.Nodes() {
		if _, ok := n.nodes[id].stack.Runtime("tracker"); ok {
			t.Fatalf("mote %d runs the refused context type", id)
		}
	}
}
