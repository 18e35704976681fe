package simtime

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// oneShard returns a one-shard group and its scheduler: the serial engine.
func oneShard() (*ShardGroup, *Scheduler) {
	g := NewShardGroup(1)
	return g, g.Shard(0)
}

// runTo runs g until its clock reaches deadline, failing tb on an error.
func runTo(tb testing.TB, g *ShardGroup, deadline time.Duration) {
	tb.Helper()
	if err := g.Run(deadline, 0, nil); err != nil {
		tb.Fatal(err)
	}
}

func TestSchedulerFiresInTimeOrder(t *testing.T) {
	g, s := oneShard()
	var got []time.Duration
	for _, d := range []time.Duration{5, 1, 3, 2, 4} {
		d := d * time.Second
		s.AtOwned(d, OwnerNone, func() { got = append(got, d) })
	}
	runTo(t, g, time.Minute)
	want := []time.Duration{1, 2, 3, 4, 5}
	for i, w := range want {
		if got[i] != w*time.Second {
			t.Fatalf("fired order %v, want seconds 1..5", got)
		}
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	g, s := oneShard()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.AtOwned(time.Second, OwnerNone, func() { got = append(got, i) })
	}
	runTo(t, g, time.Minute)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events fired out of scheduling order: %v", got)
		}
	}
}

func TestSchedulerClockAdvances(t *testing.T) {
	g, s := oneShard()
	var at time.Duration
	s.AtOwned(7*time.Second, OwnerNone, func() { at = s.Now() })
	runTo(t, g, 7*time.Second)
	if at != 7*time.Second {
		t.Errorf("Now() inside event = %v, want 7s", at)
	}
	if s.Now() != 7*time.Second || g.Now() != 7*time.Second {
		t.Errorf("final Now() = %v, group %v, want 7s", s.Now(), g.Now())
	}
}

func TestSchedulerPastEventClamped(t *testing.T) {
	g, s := oneShard()
	fired := false
	s.AtOwned(5*time.Second, OwnerNone, func() {
		// Schedule an event "in the past"; it must fire at the current time,
		// not move the clock backwards.
		s.AtOwned(time.Second, OwnerNone, func() {
			fired = true
			if s.Now() != 5*time.Second {
				t.Errorf("past event fired at %v, want 5s", s.Now())
			}
		})
	})
	runTo(t, g, time.Minute)
	if !fired {
		t.Error("past-scheduled event never fired")
	}
}

func TestSchedulerNegativeAfterClamped(t *testing.T) {
	g, s := oneShard()
	fired := false
	s.AfterOwned(-time.Second, OwnerNone, func() { fired = true })
	runTo(t, g, 0)
	if !fired || s.Now() != 0 {
		t.Errorf("negative After: fired=%v now=%v", fired, s.Now())
	}
}

func TestRunUntil(t *testing.T) {
	g, s := oneShard()
	var fired []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4} {
		d := d * time.Second
		s.AtOwned(d, OwnerNone, func() { fired = append(fired, d) })
	}
	runTo(t, g, 2500*time.Millisecond)
	if len(fired) != 2 {
		t.Fatalf("Run fired %d events, want 2", len(fired))
	}
	if s.Now() != 2500*time.Millisecond {
		t.Errorf("Now() = %v, want 2.5s", s.Now())
	}
	if s.Len() != 2 {
		t.Errorf("pending = %d, want 2", s.Len())
	}
	// Continue to the end.
	runTo(t, g, 10*time.Second)
	if len(fired) != 4 {
		t.Errorf("total fired = %d, want 4", len(fired))
	}
}

func TestRunUntilInclusiveOfDeadline(t *testing.T) {
	g, s := oneShard()
	fired := false
	s.AtOwned(2*time.Second, OwnerNone, func() { fired = true })
	runTo(t, g, 2*time.Second)
	if !fired {
		t.Error("event exactly at the deadline did not fire")
	}
}

func TestTimerStop(t *testing.T) {
	g, s := oneShard()
	fired := false
	tm := s.AtOwned(time.Second, OwnerNone, func() { fired = true })
	if !tm.Pending() {
		t.Error("timer should be pending before firing")
	}
	if !tm.Stop() {
		t.Error("Stop on pending timer should return true")
	}
	if tm.Stop() {
		t.Error("second Stop should return false")
	}
	runTo(t, g, time.Minute)
	if fired {
		t.Error("stopped timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	g, s := oneShard()
	tm := s.AtOwned(time.Second, OwnerNone, func() {})
	runTo(t, g, time.Minute)
	if tm.Pending() {
		t.Error("fired timer still pending")
	}
	if tm.Stop() {
		t.Error("Stop after fire should return false")
	}
}

func TestTimerStopFromOtherEvent(t *testing.T) {
	g, s := oneShard()
	fired := false
	victim := s.AtOwned(2*time.Second, OwnerNone, func() { fired = true })
	s.AtOwned(time.Second, OwnerNone, func() { victim.Stop() })
	runTo(t, g, time.Minute)
	if fired {
		t.Error("timer stopped by earlier event still fired")
	}
}

func TestSchedulerStop(t *testing.T) {
	g, s := oneShard()
	count := 0
	for i := 1; i <= 10; i++ {
		s.AtOwned(time.Duration(i)*time.Second, OwnerNone, func() {
			count++
			if count == 3 {
				g.Stop()
			}
		})
	}
	err := g.Run(time.Minute, 0, nil)
	if err != ErrStopped {
		t.Fatalf("Run returned %v, want ErrStopped", err)
	}
	if count != 3 || s.Now() != 3*time.Second {
		t.Errorf("executed %d events after Stop, clock %v; want 3, 3s", count, s.Now())
	}
	if !g.Stopped() {
		t.Error("Stopped() = false after Stop")
	}
	if err := g.Run(time.Minute, 0, nil); err != ErrStopped || count != 3 {
		t.Errorf("Run on a stopped group = %v after %d events, want ErrStopped, 3", err, count)
	}
}

func TestTickerPeriodic(t *testing.T) {
	g, s := oneShard()
	var times []time.Duration
	tk := NewTickerOwned(s, time.Second, OwnerNone, func() { times = append(times, s.Now()) })
	if tk == nil {
		t.Fatal("NewTicker returned nil for valid period")
	}
	runTo(t, g, 5500*time.Millisecond)
	if len(times) != 5 {
		t.Fatalf("ticker fired %d times, want 5: %v", len(times), times)
	}
	for i, at := range times {
		want := time.Duration(i+1) * time.Second
		if at != want {
			t.Errorf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestTickerStop(t *testing.T) {
	g, s := oneShard()
	count := 0
	var tk *Ticker
	tk = NewTickerOwned(s, time.Second, OwnerNone, func() {
		count++
		if count == 2 {
			tk.Stop()
		}
	})
	runTo(t, g, 10*time.Second)
	if count != 2 {
		t.Errorf("ticker fired %d times after Stop at 2, want 2", count)
	}
	tk.Stop() // idempotent
}

func TestTickerReset(t *testing.T) {
	g, s := oneShard()
	var times []time.Duration
	tk := NewTickerOwned(s, time.Second, OwnerNone, func() { times = append(times, s.Now()) })
	s.AtOwned(2500*time.Millisecond, OwnerNone, func() { tk.Reset(2 * time.Second) })
	runTo(t, g, 7*time.Second)
	// Ticks at 1s, 2s, then reset at 2.5s -> 4.5s, 6.5s.
	want := []time.Duration{
		1 * time.Second,
		2 * time.Second,
		4500 * time.Millisecond,
		6500 * time.Millisecond,
	}
	if len(times) != len(want) {
		t.Fatalf("ticks = %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", times, want)
		}
	}
}

func TestTickerInvalidPeriod(t *testing.T) {
	_, s := oneShard()
	if tk := NewTickerOwned(s, 0, OwnerNone, func() {}); tk != nil {
		t.Error("NewTicker with zero period should return nil")
	}
	if tk := NewTickerOwned(s, -time.Second, OwnerNone, func() {}); tk != nil {
		t.Error("NewTicker with negative period should return nil")
	}
}

func TestExecutedCount(t *testing.T) {
	g, s := oneShard()
	for i := 0; i < 17; i++ {
		s.AfterOwned(time.Duration(i)*time.Millisecond, OwnerNone, func() {})
	}
	runTo(t, g, time.Minute)
	if s.Executed() != 17 {
		t.Errorf("Executed = %d, want 17", s.Executed())
	}
}

// Property: regardless of insertion order, events fire sorted by time, and
// equal times fire in insertion order.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(raw []uint16, seed int64) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 200 {
			raw = raw[:200]
		}
		rng := rand.New(rand.NewSource(seed))
		g, s := oneShard()
		type rec struct {
			at  time.Duration
			seq int
		}
		var fired []rec
		for i, r := range raw {
			at := time.Duration(r%50) * time.Millisecond
			i := i
			s.AtOwned(at, OwnerNone, func() { fired = append(fired, rec{at: at, seq: i}) })
			// Randomly interleave some cancelled timers to exercise heap removal.
			if rng.Intn(3) == 0 {
				tm := s.AtOwned(time.Duration(rng.Intn(50))*time.Millisecond, OwnerNone, func() {
					fired = append(fired, rec{at: -1, seq: -1})
				})
				tm.Stop()
			}
		}
		if err := g.Run(time.Second, 0, nil); err != nil {
			return false
		}
		if len(fired) != len(raw) {
			return false
		}
		sorted := sort.SliceIsSorted(fired, func(i, j int) bool {
			if fired[i].at != fired[j].at {
				return fired[i].at < fired[j].at
			}
			return fired[i].seq < fired[j].seq
		})
		return sorted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
