package simtime

import (
	"errors"
	"testing"
	"time"
)

// pendinger is what the group protocol asks of its wait: a no-op Timer
// (the reference) or a Deadline.
type pendinger interface{ Pending() bool }

// deadlineProgram is a scripted run that arms one wait through arm and
// probes it from callbacks before and after it in the (at, seq) order, at
// its own instant and around it, and between group Run calls. It returns
// every probe's answer in program order.
func deadlineProgram(t *testing.T, arm func(s *Scheduler, d time.Duration) pendinger) []bool {
	g, s := oneShard()
	var w pendinger
	var answers []bool
	probe := func() { answers = append(answers, w.Pending()) }
	probeEv := func(any) { probe() }

	const at = 10 * time.Millisecond
	// Events at the wait's instant, scheduled before it: they fire before
	// it and must see it pending.
	s.AtOwned(at, OwnerNone, probe)
	s.AtEventOwned(at, OwnerRadio, probeEv, nil)
	s.AtEventOwned(at, OwnerRadio, probeEv, nil)
	w = arm(s, at)
	// Events at the same instant, scheduled after it: they fire after it.
	s.AtEventOwned(at, OwnerRadio, probeEv, nil)
	s.AtOwned(at, OwnerNone, probe)
	s.AtOwned(at-time.Millisecond, OwnerNone, probe)
	s.AtOwned(at+time.Millisecond, OwnerNone, probe)
	// Re-armed from inside a callback for the callback's own instant.
	s.AtOwned(20*time.Millisecond, OwnerNone, func() {
		probe()
		w = arm(s, 0)
		probe()
		s.AtEventOwned(s.Now(), OwnerMote, probeEv, nil)
	})
	s.AtEventOwned(20*time.Millisecond, OwnerMote, probeEv, nil) // scheduled before the re-arm
	runTo(t, g, 25*time.Millisecond)
	probe()
	// Armed between runs; run short of it, then exactly to it.
	w = arm(s, 5*time.Millisecond)
	runTo(t, g, 29*time.Millisecond)
	probe()
	runTo(t, g, 30*time.Millisecond)
	probe()
	return answers
}

// TestDeadlineMatchesNoopTimer runs the same program with the wait as a
// real no-op timer and as a Deadline: every Pending probe must answer
// alike, including probes from callbacks at the deadline's own instant
// before and after its seq.
func TestDeadlineMatchesNoopTimer(t *testing.T) {
	noop := func() {}
	want := deadlineProgram(t, func(s *Scheduler, d time.Duration) pendinger {
		return s.AfterOwned(d, OwnerGroup, noop)
	})
	got := deadlineProgram(t, func(s *Scheduler, d time.Duration) pendinger {
		return s.DeadlineAfter(d)
	})
	if len(got) != len(want) {
		t.Fatalf("deadline program probed %d times, timer program %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("probe %d: Deadline.Pending = %v, no-op timer %v\n deadline %v\n timer    %v", i, got[i], want[i], got, want)
		}
	}
	// The program must exercise both answers at the deadline's instant.
	var sawTrue, sawFalse bool
	for _, v := range want {
		sawTrue, sawFalse = sawTrue || v, sawFalse || !v
	}
	if !sawTrue || !sawFalse {
		t.Fatalf("probes %v do not cover both answers", want)
	}
	if (Deadline{}).Pending() {
		t.Fatal("zero Deadline is pending")
	}
}

// burstRecorder schedules n same-instant typed events of one owner and
// records their firing order.
type burstRecorder struct {
	order []int
	stop  func(i int) // called from member i's callback
}

func (r *burstRecorder) schedule(s *Scheduler, at time.Duration, owner Owner, n int) {
	for i := 0; i < n; i++ {
		s.AtEventOwned(at, owner, r.fire, i)
	}
}

func (r *burstRecorder) fire(arg any) {
	i := arg.(int)
	r.order = append(r.order, i)
	if r.stop != nil {
		r.stop(i)
	}
}

// TestRunSharesOneHeapEntry: back-to-back same-instant typed events of one
// owner hold a single heap entry; a different owner, another instant, a
// timer, or a deadline in between opens a new one.
func TestRunSharesOneHeapEntry(t *testing.T) {
	g, s := oneShard()
	var r burstRecorder
	r.schedule(s, time.Millisecond, OwnerRadio, 100)
	if len(s.heap) != 1 || s.Len() != 100 {
		t.Fatalf("100-event burst: %d heap entries, Len %d; want 1, 100", len(s.heap), s.Len())
	}
	r.schedule(s, time.Millisecond, OwnerMote, 3) // another owner
	r.schedule(s, 2*time.Millisecond, OwnerMote, 3)
	s.AtOwned(2*time.Millisecond, OwnerMote, func() {})
	r.schedule(s, 2*time.Millisecond, OwnerMote, 3) // after a timer
	s.DeadlineAfter(2 * time.Millisecond)
	r.schedule(s, 2*time.Millisecond, OwnerMote, 3) // after a deadline
	if len(s.heap) != 6 || s.Len() != 113 {
		t.Fatalf("%d heap entries, Len %d; want 6, 113", len(s.heap), s.Len())
	}
	runTo(t, g, time.Second)
	if s.Executed() != 113 || len(r.order) != 112 {
		t.Fatalf("Executed %d, typed firings %d; want 113, 112", s.Executed(), len(r.order))
	}
	for i := 0; i < 100; i++ {
		if r.order[i] != i {
			t.Fatalf("run fired out of order: %v", r.order[:100])
		}
	}
}

// TestStopMidRun: a group Stop from a run member's callback is honoured
// before the next member, and the unfired rest of the run stays pending
// under the next member's key.
func TestStopMidRun(t *testing.T) {
	t.Run("group", func(t *testing.T) {
		g, s := oneShard()
		r := &burstRecorder{}
		r.stop = func(i int) {
			if i == 2 {
				g.Stop()
			}
		}
		r.schedule(s, time.Millisecond, OwnerRadio, 5)
		if err := g.Run(time.Second, 0, nil); !errors.Is(err, ErrStopped) {
			t.Fatalf("run returned %v, want ErrStopped", err)
		}
		if len(r.order) != 3 || s.Len() != 2 || s.Executed() != 3 {
			t.Fatalf("fired %v, Len %d, Executed %d; want 3 fired, 2 pending", r.order, s.Len(), s.Executed())
		}
		// Member 3 was the fourth scheduled: seq 4.
		if len(s.heap) != 1 || s.heap[0].at != time.Millisecond || s.heap[0].seq != 4 {
			t.Fatalf("heap %+v, want one entry keyed (1ms, 4)", s.heap)
		}
	})
}

// TestRunBurstAllocatesNothing: once the slot pool and heap have grown, a
// same-instant burst and its firing allocate nothing.
func TestRunBurstAllocatesNothing(t *testing.T) {
	g, s := oneShard()
	arg := new(int)
	fn := func(any) {}
	burst := func() {
		for i := 0; i < 64; i++ {
			s.AfterEventOwned(time.Millisecond, OwnerRadio, fn, arg)
		}
		if err := g.Run(g.Now()+time.Millisecond, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	burst()
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Fatalf("steady-state burst allocates %v times, want 0", allocs)
	}
}
