package envirotrack

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"envirotrack/internal/mote"
	"envirotrack/internal/sensor"
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

// TestSensingBitMirrorsBackend pins the invariants the sensing scan's
// skip rests on: after every Run step of a Figure 3-style run, on both
// backends, serial and at 2 shards, every runtime's Backend().Sensing()
// equals the mote's HotState sensing bit for the type, and the mote's
// leading bit is set exactly when the runtime holds a Ctx. A scan that
// finds the predicate false and both bits clear skips the runtime, so a
// stale bit would silently drop a leader's condition methods or a
// sensing mote's leave.
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
				sensed, led := 0, 0
				for s := 0; s < 80; s++ {
					if err := n.Run(250 * time.Millisecond); err != nil {
						t.Fatal(err)
					}
					for _, nd := range n.nodes {
						rt, ok := nd.stack.Runtime("tracker")
						if !ok {
							continue
						}
						h, i := nd.mote.Hot()
						mask, ok := h.CtxMask("tracker")
						if !ok {
							t.Fatal("the tracker type has no hot-state bit")
						}
						bit, be := h.Sensing(i, mask), rt.Backend().Sensing()
						if bit != be {
							t.Fatalf("at %v mote %d: sensing bit %v, backend Sensing() %v", n.Now(), nd.ID(), bit, be)
						}
						lead, ctx := h.Leading(i, mask), rt.Ctx() != nil
						if lead != ctx {
							t.Fatalf("at %v mote %d: leading bit %v, runtime holds a Ctx %v", n.Now(), nd.ID(), lead, ctx)
						}
						if bit {
							sensed++
						}
						if lead {
							led++
						}
					}
				}
				if sensed == 0 {
					t.Fatal("no mote ever sensed the target")
				}
				if led == 0 {
					t.Fatal("no mote ever led a label")
				}
			})
		}
	}
}

// scanLog records, per context type, the motes and instants its
// Activation predicate was evaluated at.
type scanLog []string

func (l *scanLog) activation(name string) func(Reading) bool {
	return func(rd Reading) bool {
		*l = append(*l, fmt.Sprintf("%s@%d@%v", name, rd.MoteID(), rd.At()))
		return false
	}
}

// TestScanOrderIsTypeBitOrder attaches two context types to two motes in
// opposite orders. A mote's types are scanned in type-bit order, which is
// the order the network first attached each type anywhere, not each
// mote's own attach order.
func TestScanOrderIsTypeBitOrder(t *testing.T) {
	n := buildNet(t)
	ids := n.Nodes()
	a, _ := n.Node(ids[0])
	b, _ := n.Node(ids[1])
	var log scanLog
	alpha := ContextType{Name: "alpha", Activation: log.activation("alpha")}
	beta := ContextType{Name: "beta", Activation: log.activation("beta")}
	for _, step := range []struct {
		node *Node
		spec ContextType
	}{{a, alpha}, {a, beta}, {b, beta}, {b, alpha}} {
		if err := step.node.AttachContext(step.spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Run(150 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	want := scanLog{
		fmt.Sprintf("alpha@%d@100ms", ids[0]), fmt.Sprintf("beta@%d@100ms", ids[0]),
		fmt.Sprintf("alpha@%d@100ms", ids[1]), fmt.Sprintf("beta@%d@100ms", ids[1]),
	}
	if !slices.Equal(log, want) {
		t.Errorf("scans = %v, want %v", log, want)
	}
}

// TestAttachBetweenRunsScansOwnSpec attaches one context type to two
// motes with different specs, one before the first Run and one between
// two Runs: each mote's scans evaluate its own Activation, and the late
// mote is scanned from the first tick after its attach. The network-wide
// type attached with AttachContextAll keeps scanning both motes.
func TestAttachBetweenRunsScansOwnSpec(t *testing.T) {
	n := buildNet(t)
	ids := n.Nodes()
	early, _ := n.Node(ids[0])
	late, _ := n.Node(ids[1])
	var all, first, second scanLog
	if err := n.AttachContextAll(ContextType{Name: "all", Activation: all.activation("all")}); err != nil {
		t.Fatal(err)
	}
	if err := early.AttachContext(ContextType{Name: "solo", Activation: first.activation("first")}); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := late.AttachContext(ContextType{Name: "solo", Activation: second.activation("second")}); err != nil {
		t.Fatal(err)
	}
	if len(second) != 0 {
		t.Fatalf("the late spec was evaluated before a scan: %v", second)
	}
	if err := n.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	var want scanLog
	for tick := 1; tick <= 20; tick++ {
		want = append(want, fmt.Sprintf("first@%d@%v", ids[0], time.Duration(tick)*100*time.Millisecond))
	}
	if !slices.Equal(first, want) {
		t.Errorf("early spec scans = %v, want %v", first, want)
	}
	want = want[:0]
	for tick := 11; tick <= 20; tick++ {
		want = append(want, fmt.Sprintf("second@%d@%v", ids[1], time.Duration(tick)*100*time.Millisecond))
	}
	if !slices.Equal(second, want) {
		t.Errorf("late spec scans = %v, want %v", second, want)
	}
	if got, want := len(all), 20*len(ids); got != want {
		t.Errorf("network-wide type evaluated %d times, want %d", got, want)
	}
}

// TestAttachRejectsContextTypePastLimit attaches the most context types
// the hot state has bits for and checks the next one is refused as an
// input error, so no attached type is left without a sensing bit. Core
// refuses it, through the network and through one node, before it builds
// any backend.
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
	want := fmt.Sprintf("core: context type %q exceeds the limit of %d context types", "tracker", mote.MaxContextTypes)
	if err := n.AttachContextAll(trackerContext(100, &reports)); err == nil || err.Error() != want {
		t.Fatalf("context type %d attached with error %v; want %q", mote.MaxContextTypes+1, err, want)
	}
	if err := mustNode(t, n, 0).AttachContext(trackerContext(100, &reports)); err == nil || err.Error() != want {
		t.Fatalf("Node.AttachContext past the limit: error %v; want %q", err, want)
	}
	for _, nd := range n.nodes {
		if _, ok := nd.stack.Runtime("tracker"); ok {
			t.Fatalf("mote %d runs the refused context type", nd.ID())
		}
	}
}

// TestSharedNoisyModelAcrossShards shares one sensing model with a
// WithNoise channel among every mote of a 2-shard run, so both shards'
// sweeps evaluate the channel at once: it must hold no state (run under
// go test -race), and a rerun must give a byte-identical trace. The
// tracker's activation reads the noisy channel.
func TestSharedNoisyModelAcrossShards(t *testing.T) {
	run := func() []byte {
		model := VehicleSensing("vehicle")
		model.SetChannel("noisy_detect", sensor.WithNoise(DetectionChannel("vehicle"), 0.1, 9))
		var buf bytes.Buffer
		sink := NewJSONLSink(&buf)
		n := buildNet(t, WithSensing(model), WithParallelShards(2), WithEventBus(NewEventBus(sink)))
		spec := trackerContext(100, nil)
		spec.Activation = func(rd Reading) bool {
			v, _ := rd.Value("noisy_detect")
			return v > 0.5
		}
		if err := n.AttachContextAll(spec); err != nil {
			t.Fatal(err)
		}
		if _, err := n.AddMote(100, Pt(7, 3), nil); err != nil {
			t.Fatal(err)
		}
		n.AddTarget(crossingTarget(t))
		if err := n.Run(12 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		if n.Ledger().Summarize("tracker").Created == 0 {
			t.Fatal("no label was created: the noisy channel never activated the tracker")
		}
		return buf.Bytes()
	}
	if first, second := run(), run(); !bytes.Equal(first, second) {
		t.Errorf("reruns with a shared noisy model diverge (%d vs %d trace bytes)", len(first), len(second))
	}
}
