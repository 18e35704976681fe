package simtime

import (
	"testing"
	"time"
)

// TestProfileAttributesOwners: every Owned scheduling form charges its
// callback to the right subsystem, untagged forms land in "other", and
// wall time accumulates without touching the virtual clock.
func TestProfileAttributesOwners(t *testing.T) {
	g, s := oneShard()
	p := NewProfile()
	g.SetProfile(p)
	if s.prof != p {
		t.Fatal("SetProfile did not attach the profile to the shard")
	}
	if p.ShardSnapshot() != nil {
		t.Fatal("a one-shard group gave the profile a shard dimension")
	}

	s.AtOwned(time.Second, OwnerRadio, func() {})
	s.AfterOwned(2*time.Second, OwnerRadio, func() {})
	s.AtEventOwned(3*time.Second, OwnerMote, func(any) {}, nil)
	s.AfterEventOwned(4*time.Second, OwnerGroup, func(any) {}, nil)
	s.AfterEventTimerOwned(5*time.Second, OwnerDirectory, func(any) {}, nil)
	s.AfterEventTimerOwned(6*time.Second, OwnerChaos, func(any) {}, nil)
	s.AtOwned(7*time.Second, OwnerNone, func() {}) // untagged

	runTo(t, g, 7*time.Second)

	want := map[Owner]uint64{
		OwnerRadio: 2, OwnerMote: 1, OwnerGroup: 1,
		OwnerDirectory: 1, OwnerChaos: 1, OwnerNone: 1,
	}
	for _, st := range p.Snapshot() {
		if st.Events != want[st.Owner] {
			t.Errorf("%s events = %d, want %d", st.Name, st.Events, want[st.Owner])
		}
		if st.WallNanos < 0 {
			t.Errorf("%s wall = %d, want >= 0", st.Name, st.WallNanos)
		}
	}
	if got := p.TotalEvents(); got != 7 {
		t.Errorf("total events = %d, want 7", got)
	}
	if s.Now() != 7*time.Second {
		t.Errorf("virtual clock = %v, want 7s (profiling must not touch it)", s.Now())
	}

	p.Reset()
	if p.TotalEvents() != 0 || p.TotalNanos() != 0 {
		t.Error("Reset did not zero the profile")
	}
}

// TestProfileDetachAndTickers: tickers charge their owner every tick,
// and detaching the profile stops accumulation.
func TestProfileDetachAndTickers(t *testing.T) {
	g, s := oneShard()
	p := NewProfile()
	g.SetProfile(p)

	tk := NewTickerOwned(s, time.Second, OwnerSense, func() {})
	runTo(t, g, 3500*time.Millisecond)
	if got := p.Snapshot()[OwnerSense].Events; got != 3 {
		t.Errorf("sense events = %d, want 3 ticks", got)
	}

	g.SetProfile(nil)
	runTo(t, g, 10*time.Second)
	tk.Stop()
	if s.Executed() != 10 {
		t.Fatalf("Executed = %d, want 10 ticks", s.Executed())
	}
	if got := p.Snapshot()[OwnerSense].Events; got != 3 {
		t.Errorf("detached profile still accumulated: %d events", got)
	}
}

// TestProfileIdenticalRunWithAndWithoutProfile: attaching a profile must
// not change event order or the virtual timeline.
func TestProfileIdenticalRunWithAndWithoutProfile(t *testing.T) {
	runOrder := func(prof bool) []int {
		g, s := oneShard()
		if prof {
			g.SetProfile(NewProfile())
		}
		var order []int
		s.AtOwned(2*time.Second, OwnerRadio, func() { order = append(order, 2) })
		s.AtOwned(time.Second, OwnerGroup, func() { order = append(order, 1) })
		s.AtEventOwned(time.Second, OwnerMote, func(any) { order = append(order, 10) }, nil)
		runTo(t, g, 2*time.Second)
		return order
	}
	a, b := runOrder(false), runOrder(true)
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order diverged with profile attached: %v vs %v", a, b)
		}
	}
}

func TestOwnerNamesUniqueAndStable(t *testing.T) {
	seen := map[string]Owner{}
	for o := range Owner(NumOwners) {
		n := o.String()
		if n == "" {
			t.Errorf("owner %d has empty name", o)
		}
		if prev, dup := seen[n]; dup {
			t.Errorf("owners %d and %d share name %q", prev, o, n)
		}
		seen[n] = o
	}
	if len(seen) != NumOwners {
		t.Errorf("%d distinct names for %d owners", len(seen), NumOwners)
	}
	if Owner(200).String() != "other" {
		t.Error("out-of-range owner does not fall back to other")
	}
}

// TestProfileCountsHeapPushes: the profile counts heap pushes per owner
// beside events. A same-instant run is many events behind one push, and
// a stopped timer is a push that never fires.
func TestProfileCountsHeapPushes(t *testing.T) {
	g, s := oneShard()
	p := NewProfile()
	g.SetProfile(p)
	for i := 0; i < 5; i++ {
		s.AtEventOwned(time.Second, OwnerMote, func(any) {}, nil)
	}
	s.AtOwned(time.Second, OwnerRadio, func() {})
	s.AtOwned(2*time.Second, OwnerRadio, func() {}).Stop()
	runTo(t, g, 2*time.Second)
	snap := p.Snapshot()
	for _, c := range []struct {
		owner          Owner
		events, pushes uint64
	}{{OwnerMote, 5, 1}, {OwnerRadio, 1, 2}} {
		if st := snap[c.owner]; st.Events != c.events || st.Pushes != c.pushes {
			t.Errorf("%s: %d events, %d pushes; want %d, %d", st.Name, st.Events, st.Pushes, c.events, c.pushes)
		}
	}
	p.Reset()
	if p.Snapshot()[OwnerMote].Pushes != 0 {
		t.Error("Reset did not zero the push counts")
	}
}
