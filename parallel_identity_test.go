package envirotrack

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"envirotrack/internal/obs"
)

// Every random draw is keyed by who draws it, so a parallel run is the
// serial run until a frame reaches another shard. These tests hold the
// engine to that: what a k-shard run does before its first boundary frame
// is exactly what the serial run does.

// identityField is a tracked vehicle crossing a 30x20 field from its left
// edge toward end, reporting to a pursuer just off the bottom-left corner.
// At 2 shards the field splits at x = 14.5; at 4 shards also at y = 9.5.
type identityField struct {
	end    Point
	runFor time.Duration
}

// identityOutcome is what a run produced: the reports that reached the
// pursuer, the radio accounting and the label ledger.
type identityOutcome struct {
	Reports []string
	Stats   Stats
	Labels  HandoverSummary
	Ledger  []string
}

// eventLog collects a run's events.
type eventLog struct {
	mu     sync.Mutex
	events []obs.Event
}

func (l *eventLog) Emit(ev obs.Event) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

func (f identityField) run(t *testing.T, shards int) (identityOutcome, []obs.Event, *Network) {
	t.Helper()
	log := &eventLog{}
	n, err := New(WithGrid(30, 20), WithCommRadius(2.5), WithSensing(VehicleSensing("vehicle")),
		WithSeed(5), WithLossProb(0.1), WithParallelShards(shards), WithEventBus(NewEventBus(log)))
	if err != nil {
		t.Fatal(err)
	}
	const pursuerID = 100_000
	if err := n.AttachContextAll(trackerContext(pursuerID, nil)); err != nil {
		t.Fatal(err)
	}
	pursuer, err := n.AddMote(pursuerID, Pt(-1, -1), nil)
	if err != nil {
		t.Fatal(err)
	}
	var out identityOutcome
	pursuer.OnMessage(func(m NodeMessage) {
		out.Reports = append(out.Reports, fmt.Sprintf("%v %v", pursuer.Now(), m.Payload))
	})
	traj, err := NewWaypoints([]Point{Pt(-1.5, 2), f.end}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	n.AddTarget(&Target{Name: "tank", Kind: "vehicle", Traj: traj, SignatureRadius: 1.6})
	if err := n.Run(f.runFor); err != nil {
		t.Fatal(err)
	}
	out.Stats, out.Labels = *n.Stats(), n.Ledger().Summarize("tracker")
	for _, ev := range n.Ledger().Events {
		out.Ledger = append(out.Ledger, fmt.Sprintf("%+v", ev))
	}
	slices.Sort(out.Ledger)
	return out, log.events, n
}

// canonical orders events by (time, mote, type, the rest). Frame ids need
// no mapping: they name (sender, send count) on every shard layout.
func canonical(events []obs.Event) []string {
	sorted := slices.Clone(events)
	slices.SortStableFunc(sorted, func(a, b obs.Event) int {
		switch {
		case a.At != b.At:
			return int(a.At - b.At)
		case a.Mote != b.Mote:
			return a.Mote - b.Mote
		default:
			return int(a.Type) - int(b.Type)
		}
	})
	out := make([]string, len(sorted))
	for i, ev := range sorted {
		out[i] = fmt.Sprintf("%+v", ev)
	}
	// Events equal in (time, mote, type) compare by their whole text.
	for i := 0; i < len(out); {
		j := i + 1
		for j < len(out) && sorted[j].At == sorted[i].At && sorted[j].Mote == sorted[i].Mote && sorted[j].Type == sorted[i].Type {
			j++
		}
		slices.Sort(out[i:j])
		i = j
	}
	return out
}

// sameEvents fails t at the first canonical event where got and want
// differ.
func sameEvents(t *testing.T, label string, got, want []string) {
	t.Helper()
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("%s: canonical event %d differs\ngot  %s\nwant %s", label, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d canonical events, want %d", label, len(got), len(want))
	}
}

// TestParallelMatchesSerialWithoutBoundaryFrames runs a vehicle that
// never comes near a shard boundary: no frame crosses one, so 2- and
// 4-shard runs must give the serial run's outcome and trace exactly.
func TestParallelMatchesSerialWithoutBoundaryFrames(t *testing.T) {
	t.Parallel()
	f := identityField{end: Pt(5, 2), runFor: 20 * time.Second}
	serial, serialEvents, _ := f.run(t, 1)
	if len(serial.Reports) == 0 || serial.Labels.Created == 0 {
		t.Fatalf("the serial run tracked nothing: %+v", serial.Labels)
	}
	want := canonical(serialEvents)
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprint(shards), func(t *testing.T) {
			t.Parallel()
			got, events, n := f.run(t, shards)
			if bf := n.BoundaryFrames(); bf != 0 {
				t.Fatalf("%d boundary frames: the field is not quiet at its shard boundaries", bf)
			}
			if !reflect.DeepEqual(got, serial) {
				t.Errorf("outcome differs from serial:\ngot  %+v\nwant %+v", got, serial)
			}
			sameEvents(t, "trace", canonical(events), want)
		})
	}
}

// TestParallelMatchesSerialUntilFirstBoundaryFrame runs a vehicle toward
// the shard boundary at x = 14.5. Until the first frame whose sender has
// a radio neighbour on another shard goes on the air, the 2- and 4-shard
// traces must be the serial trace; after it, the shard-local channel may
// make them differ. Any difference before it is an engine bug.
func TestParallelMatchesSerialUntilFirstBoundaryFrame(t *testing.T) {
	t.Parallel()
	f := identityField{end: Pt(28, 2), runFor: 40 * time.Second}
	_, serialEvents, _ := f.run(t, 1)
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprint(shards), func(t *testing.T) {
			t.Parallel()
			_, events, n := f.run(t, shards)
			if n.BoundaryFrames() == 0 {
				t.Fatal("no frame crossed a shard boundary: the test checks nothing past the boundary")
			}
			cut := firstBoundarySend(n, events)
			before := func(evs []obs.Event) []obs.Event {
				return slices.DeleteFunc(slices.Clone(evs), func(ev obs.Event) bool { return ev.At >= cut })
			}
			got, want := canonical(before(events)), canonical(before(serialEvents))
			if len(want) < 1000 {
				t.Fatalf("only %d events before the first boundary frame at %v, want at least 1000", len(want), cut)
			}
			sameEvents(t, fmt.Sprintf("before the first boundary frame at %v", cut), got, want)
			t.Logf("%d events match serial before the first boundary frame at %v", len(want), cut)
		})
	}
}

// firstBoundarySend returns when the first frame went on the air whose
// sender has a radio neighbour on another shard.
func firstBoundarySend(n *Network, events []obs.Event) time.Duration {
	r := n.medium.Params().CommRadius
	boundary := map[int]bool{}
	for _, a := range n.nodes {
		pa := a.Pos()
		for _, b := range n.nodes {
			if pb := b.Pos(); pa.Within(pb, r) && n.shardOf(pa) != n.shardOf(pb) {
				boundary[int(a.ID())] = true
				break
			}
		}
	}
	cut := time.Duration(1<<63 - 1)
	for _, ev := range events {
		if ev.Type == obs.EvFrameSent && boundary[ev.Mote] && ev.At < cut {
			cut = ev.At
		}
	}
	return cut
}
