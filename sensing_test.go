package envirotrack

import (
	"fmt"
	"testing"
	"time"
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

// TestContextTypePastInternTableTracks attaches 33 context types, so the
// last one falls past the 32-type hot-state intern table and has no
// sensing bit. Its runtime must then tell the backend on every scan: after
// every second each backend's Sensing() matches the activation predicate
// on the mote's current reading, and the type still forms a group and
// reports to the pursuer.
func TestContextTypePastInternTableTracks(t *testing.T) {
	n := buildNet(t)
	for i := 0; i < 32; i++ {
		spec := ContextType{
			Name:       fmt.Sprintf("idle%02d", i),
			Activation: func(Reading) bool { return false },
		}
		if err := n.AttachContextAll(spec); err != nil {
			t.Fatal(err)
		}
	}
	var reports []Point
	spec := trackerContext(100, &reports)
	if err := n.AttachContextAll(spec); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.hot.CtxMask("tracker"); ok || !n.hot.Overflowed() {
		t.Fatal("the 33rd context type was interned; the test no longer reaches the overflow path")
	}
	pursuer, err := n.AddMote(100, Pt(7, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	pursuer.OnMessage(func(m NodeMessage) {
		if p, ok := m.Payload.(Point); ok {
			reports = append(reports, p)
		}
	})
	n.AddTarget(crossingTarget(t))
	was := make(map[NodeID]bool)
	falls := 0
	for s := 0; s < 20; s++ {
		if err := n.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		for _, id := range n.Nodes() {
			rt, ok := n.nodes[id].stack.Runtime("tracker")
			if !ok {
				continue
			}
			want := spec.Activation(n.nodes[id].mote.Sense())
			if got := rt.Backend().Sensing(); got != want {
				t.Fatalf("at %v mote %d: backend Sensing() %v, activation %v", n.Now(), id, got, want)
			}
			if was[id] && !want {
				falls++
			}
			was[id] = want
		}
	}
	if falls == 0 {
		t.Error("no mote stopped sensing the target: the fallback's falling edge went unchecked")
	}
	if got := n.Ledger().Summarize("tracker").Created; got == 0 {
		t.Error("the 33rd context type created no label")
	}
	if len(reports) == 0 {
		t.Error("the 33rd context type delivered no report")
	}
}
