package simtime

import (
	"testing"
	"time"
	"unsafe"
)

// schedulerChurn returns one iteration of the heartbeat-reset pattern
// that dominates the group protocol: every received heartbeat stops the
// pending receive timer and arms a fresh one, under a standing population
// of 256 timers that keeps the heap realistically deep.
func schedulerChurn() func() {
	_, s := oneShard()
	fn := func() {}
	for i := 0; i < 256; i++ {
		s.AfterOwned(time.Duration(i+1)*time.Millisecond, OwnerNone, fn)
	}
	tm := s.AfterOwned(time.Millisecond, OwnerNone, fn)
	i := 0
	return func() {
		tm.Stop()
		tm = s.AfterOwned(time.Duration(1+i%7)*time.Millisecond, OwnerNone, fn)
		i++
	}
}

// schedulerStep returns one iteration of the pop/fire cycle, the inner
// loop of every simulation run: schedule an event 65 µs ahead, then run
// the one-shard group a microsecond, which fires exactly the earliest of
// the 64 pending events.
func schedulerStep(tb testing.TB) func() {
	g, s := oneShard()
	var fn EventFunc = func(any) {}
	for i := 0; i < 64; i++ {
		s.AfterEventOwned(time.Duration(i+1)*time.Microsecond, OwnerNone, fn, nil)
	}
	return func() {
		s.AfterEventOwned(65*time.Microsecond, OwnerNone, fn, nil)
		if err := g.Run(g.Now()+time.Microsecond, 0, nil); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkSchedulerChurn measures the timer stop and re-arm cycle. With
// pooled slots and lazy cancellation both operations are allocation-free
// and the Stop is O(1).
func BenchmarkSchedulerChurn(b *testing.B) {
	churn := schedulerChurn()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn()
	}
}

// BenchmarkSchedulerStep measures schedule-ahead plus firing one event.
func BenchmarkSchedulerStep(b *testing.B) {
	step := schedulerStep(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestSchedulerChurnAllocatesNothing pins BenchmarkSchedulerChurn's
// steady state: stopping and re-arming a timer allocates nothing.
func TestSchedulerChurnAllocatesNothing(t *testing.T) {
	churn := schedulerChurn()
	churn()
	if allocs := testing.AllocsPerRun(1000, churn); allocs != 0 {
		t.Fatalf("timer stop and re-arm allocates %v times, want 0", allocs)
	}
}

// TestSchedulerStepAllocatesNothing pins BenchmarkSchedulerStep's steady
// state: scheduling one event and running the group to fire one
// allocates nothing.
func TestSchedulerStepAllocatesNothing(t *testing.T) {
	step := schedulerStep(t)
	step()
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("schedule plus fire allocates %v times, want 0", allocs)
	}
}

// TestSlotStateSize pins the pooled event slot at 40 B: one typed handler
// and its payload, with a closure event stored as callFunc's payload.
func TestSlotStateSize(t *testing.T) {
	if size := unsafe.Sizeof(slotState{}); size > 40 {
		t.Errorf("unsafe.Sizeof(slotState{}) = %d B, want <= 40", size)
	}
}
