package envirotrack

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func sessionNet(t *testing.T, opts ...Option) *Network {
	t.Helper()
	n := buildNet(t, opts...)
	spec := trackerContext(100, nil)
	if err := n.AttachContextAll(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddMote(100, Pt(7, 3), nil); err != nil {
		t.Fatal(err)
	}
	n.AddTarget(&Target{
		Name: "tank", Kind: "vehicle",
		Traj: Stationary{At: Pt(3.5, 1)}, SignatureRadius: 1.6,
	})
	return n
}

// onEachEngine runs body against a session network on the serial engine
// and on two shards, where RunSession drives the lookahead executor's
// worker, watcher, and group-stop path.
func onEachEngine(t *testing.T, body func(t *testing.T, n *Network)) {
	for _, k := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			body(t, sessionNet(t, WithParallelShards(k)))
		})
	}
}

func TestSessionStreamsEvents(t *testing.T) {
	onEachEngine(t, testSessionStreamsEvents)
}

func testSessionStreamsEvents(t *testing.T, n *Network) {
	s := n.RunSession(10*time.Second, 100)
	var events []Event
	for ev := range s.Events() {
		events = append(events, ev)
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events streamed")
	}
	for _, ev := range events {
		if ev.Node != 100 {
			t.Errorf("event from node %d, want 100", ev.Node)
		}
		if ev.At <= 0 || ev.At > 10*time.Second {
			t.Errorf("event at %v outside the run window", ev.At)
		}
	}
	// Events arrive in nondecreasing time order.
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Error("events out of order")
		}
	}
	if n.Now() != 10*time.Second {
		t.Errorf("clock = %v, want 10s after session", n.Now())
	}
}

func TestSessionStop(t *testing.T) {
	onEachEngine(t, testSessionStop)
}

func testSessionStop(t *testing.T, n *Network) {
	s := n.RunSession(time.Hour, 100)
	got := 0
	for range s.Events() {
		got++
		if got == 3 {
			s.Stop()
		}
	}
	err := s.Wait()
	if !errors.Is(err, ErrSessionStopped) {
		t.Errorf("Wait = %v, want ErrSessionStopped", err)
	}
	if got < 3 {
		t.Errorf("events before stop = %d, want >= 3", got)
	}
	if now := n.Now(); now >= time.Minute {
		t.Errorf("clock = %v after a stop at the third report, want the run cut short", now)
	}
	// Stop is idempotent and safe afterwards.
	s.Stop()
}

// TestSessionRejectsUnknownSubscriber checks that a subscriber id naming
// no mote ends the session at once: no event, the clock unmoved, and Wait
// returns an error naming the id.
func TestSessionRejectsUnknownSubscriber(t *testing.T) {
	n := sessionNet(t)
	s := n.RunSession(2*time.Second, 100, 4242)
	for range s.Events() {
		t.Error("event from a session with an unknown subscriber")
	}
	err := s.Wait()
	if err == nil || !strings.Contains(err.Error(), "4242") {
		t.Fatalf("Wait = %v, want an error naming node 4242", err)
	}
	if n.Now() != 0 {
		t.Errorf("Now = %v after the rejected session, want 0", n.Now())
	}
	s.Stop()
}

func TestSessionWithoutSubscribers(t *testing.T) {
	n := sessionNet(t)
	s := n.RunSession(2 * time.Second)
	for range s.Events() {
		t.Error("unexpected event with no subscribers")
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionBackpressure checks that a slow consumer loses no events:
// the simulation blocks on the channel send.
func TestSessionBackpressure(t *testing.T) {
	onEachEngine(t, testSessionBackpressure)
}

func testSessionBackpressure(t *testing.T, n *Network) {
	s := n.RunSession(10*time.Second, 100)
	var events []Event
	for ev := range s.Events() {
		events = append(events, ev)
		time.Sleep(time.Millisecond) // slow consumer
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 5 {
		t.Errorf("events = %d, want the full report stream", len(events))
	}
}
