package simtime

import (
	"testing"
	"time"
)

// BenchmarkSchedulerChurn measures the heartbeat-reset pattern that
// dominates the group protocol: every received heartbeat stops the pending
// receive timer and arms a fresh one. With pooled slots and lazy
// cancellation both operations are allocation-free and the Stop is O(1).
func BenchmarkSchedulerChurn(b *testing.B) {
	s := NewScheduler()
	fn := func() {}
	// A standing population of timers keeps the heap realistically deep.
	for i := 0; i < 256; i++ {
		s.AfterOwned(time.Duration(i+1)*time.Millisecond, OwnerNone, fn)
	}
	tm := s.AfterOwned(time.Millisecond, OwnerNone, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Stop()
		tm = s.AfterOwned(time.Duration(1+i%7)*time.Millisecond, OwnerNone, fn)
	}
}

// BenchmarkSchedulerStep measures the pop/fire cycle: schedule-ahead plus
// Step, the inner loop of every simulation run.
func BenchmarkSchedulerStep(b *testing.B) {
	s := NewScheduler()
	var fn EventFunc = func(any) {}
	for i := 0; i < 64; i++ {
		s.AfterEventOwned(time.Duration(i+1)*time.Microsecond, OwnerNone, fn, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AfterEventOwned(65*time.Microsecond, OwnerNone, fn, nil)
		s.Step()
	}
}
