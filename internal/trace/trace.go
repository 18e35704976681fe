// Package trace collects run statistics for the simulator: radio message
// accounting (per-kind sent/lost counts, bits on air, link utilization), the
// context-label coherence ledger used for handover-success measurements
// (Figure 4), and trajectory recording (Figure 3).
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"envirotrack/internal/geom"
)

// Kind identifies a protocol message class for accounting purposes.
type Kind string

// Message kinds accounted by the radio and protocol layers.
const (
	KindHeartbeat  Kind = "heartbeat"
	KindReading    Kind = "reading"
	KindRelinquish Kind = "relinquish"
	KindJoin       Kind = "join"
	KindReport     Kind = "report"
	KindDirectory  Kind = "directory"
	KindTransport  Kind = "transport"
	KindCross      Kind = "cross-traffic"
	// KindTrace is the passive-traces backend's gossip frame: deposited
	// trace records flooded one hop to the sensing neighborhood.
	KindTrace Kind = "trace"
)

// LossCause distinguishes why a transmitted frame failed to arrive.
type LossCause int

// Loss causes recorded by the radio medium and motes.
const (
	LossRandom    LossCause = iota + 1 // iid channel loss
	LossCollision                      // overlapping transmissions at the receiver
	LossOverload                       // receiver CPU queue full
)

// String implements fmt.Stringer.
func (c LossCause) String() string {
	switch c {
	case LossRandom:
		return "random"
	case LossCollision:
		return "collision"
	case LossOverload:
		return "overload"
	default:
		return fmt.Sprintf("LossCause(%d)", int(c))
	}
}

// KindStats aggregates counters for one message kind.
type KindStats struct {
	Sent          uint64 // transmissions initiated
	Received      uint64 // successful receptions (any receiver)
	Undelivered   uint64 // transmissions that reached no receiver at all
	LostRandom    uint64 // receptions dropped by channel loss
	LostCollision uint64
	LostOverload  uint64
}

// Stats accumulates radio accounting for a run. The zero value is ready to
// use. Stats is not safe for concurrent use; each simulation run owns one.
type Stats struct {
	// kinds holds the counters per kind in first-recorded order. A run
	// uses a handful of kinds, so a linear scan comparing the kind strings
	// (length first, then bytes; the constant kinds share their bytes)
	// beats hashing them on every reception.
	kinds    []kindEntry
	BitsSent uint64 // total bits put on the air
}

type kindEntry struct {
	kind  Kind
	stats KindStats
}

// kindStats returns (adding if needed) the counters for k.
func (s *Stats) kindStats(k Kind) *KindStats {
	for i := range s.kinds {
		if s.kinds[i].kind == k {
			return &s.kinds[i].stats
		}
	}
	s.kinds = append(s.kinds, kindEntry{kind: k})
	return &s.kinds[len(s.kinds)-1].stats
}

// RecordSend notes a transmission of the given kind and size.
func (s *Stats) RecordSend(k Kind, bits int) {
	s.kindStats(k).Sent++
	s.BitsSent += uint64(bits)
}

// RecordReceive notes one successful reception.
func (s *Stats) RecordReceive(k Kind) {
	s.kindStats(k).Received++
}

// RecordLoss notes one failed reception with its cause.
func (s *Stats) RecordLoss(k Kind, cause LossCause) {
	ks := s.kindStats(k)
	switch cause {
	case LossCollision:
		ks.LostCollision++
	case LossOverload:
		ks.LostOverload++
	default:
		ks.LostRandom++
	}
}

// RecordUndelivered notes a transmission that was received by nobody.
func (s *Stats) RecordUndelivered(k Kind) {
	s.kindStats(k).Undelivered++
}

// AddFrom folds another accumulator's counters into s. The free-running
// parallel engine gives each shard a private Stats and merges them here
// after the shards stop (counter sums are order-independent, so the
// merged totals are deterministic per configuration).
func (s *Stats) AddFrom(o *Stats) {
	s.BitsSent += o.BitsSent
	for i := range o.kinds {
		oks := &o.kinds[i].stats
		ks := s.kindStats(o.kinds[i].kind)
		ks.Sent += oks.Sent
		ks.Received += oks.Received
		ks.Undelivered += oks.Undelivered
		ks.LostRandom += oks.LostRandom
		ks.LostCollision += oks.LostCollision
		ks.LostOverload += oks.LostOverload
	}
}

// Kind returns a copy of the counters for k.
func (s *Stats) Kind(k Kind) KindStats {
	for i := range s.kinds {
		if s.kinds[i].kind == k {
			return s.kinds[i].stats
		}
	}
	return KindStats{}
}

// Kinds returns the recorded kinds in sorted order.
func (s *Stats) Kinds() []Kind {
	out := make([]Kind, 0, len(s.kinds))
	for i := range s.kinds {
		out = append(out, s.kinds[i].kind)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LossFraction returns lost/(lost+received) receptions for kind k, in
// [0, 1]. It returns 0 when nothing was observed. This matches the paper's
// per-kind "% loss" metric (messages sent but never received).
func (s *Stats) LossFraction(k Kind) float64 {
	ks := s.Kind(k)
	lost := ks.LostRandom + ks.LostCollision + ks.LostOverload
	total := lost + ks.Received
	if total == 0 {
		return 0
	}
	return float64(lost) / float64(total)
}

// LinkUtilization returns bits-per-second on the air divided by the channel
// capacity, over the given run duration. This mirrors the paper's worst-case
// estimate: a broadcast model in which no two messages are concurrent.
func (s *Stats) LinkUtilization(runtime time.Duration, capacityBitsPerSec float64) float64 {
	if runtime <= 0 || capacityBitsPerSec <= 0 {
		return 0
	}
	bps := float64(s.BitsSent) / runtime.Seconds()
	return bps / capacityBitsPerSec
}

// Summary renders a human-readable multi-line summary of the statistics.
func (s *Stats) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bits sent: %d\n", s.BitsSent)
	for _, k := range s.Kinds() {
		ks := s.Kind(k)
		fmt.Fprintf(&b, "%-14s sent=%d recv=%d undeliv=%d lost(rand=%d coll=%d ovl=%d)\n",
			k, ks.Sent, ks.Received, ks.Undelivered, ks.LostRandom, ks.LostCollision, ks.LostOverload)
	}
	return b.String()
}

// TrajectoryPoint pairs a timestamped true target position with the
// position reported by the tracking application.
type TrajectoryPoint struct {
	At       time.Duration
	Actual   geom.Point
	Reported geom.Point
}

// Trajectory records the actual-vs-reported track of one target.
type Trajectory struct {
	Points []TrajectoryPoint
}

// Record appends a sample.
func (tr *Trajectory) Record(at time.Duration, actual, reported geom.Point) {
	tr.Points = append(tr.Points, TrajectoryPoint{At: at, Actual: actual, Reported: reported})
}

// MeanError returns the mean Euclidean distance between actual and reported
// positions, or 0 if no samples exist.
func (tr *Trajectory) MeanError() float64 {
	if len(tr.Points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range tr.Points {
		sum += p.Actual.Dist(p.Reported)
	}
	return sum / float64(len(tr.Points))
}

// MaxError returns the largest sample error.
func (tr *Trajectory) MaxError() float64 {
	var m float64
	for _, p := range tr.Points {
		if d := p.Actual.Dist(p.Reported); d > m {
			m = d
		}
	}
	return m
}
