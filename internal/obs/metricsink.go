package obs

import (
	"sync"
	"time"
)

// Default histogram bounds (seconds). Handover latency is bounded below
// by the receive-timer timeout (~2 heartbeat periods, 1s at defaults);
// leader tenure runs from sub-second yields to whole-run leadership.
var (
	HandoverLatencyBuckets = []float64{0.1, 0.25, 0.5, 1, 2, 5, 10}
	LeaderTenureBuckets    = []float64{1, 2, 5, 10, 30, 60, 120}
)

// MetricsSink derives protocol-level metrics from the event stream and
// feeds them into a Registry: a per-type event counter vector, a
// handover-latency histogram (gap between the last sign of life from the
// old leader — heartbeat or step-down — and the moment a new leader takes
// over), and a leader-tenure histogram (how long each leadership span
// lasted). State is keyed by (run, label) so one sink can be shared
// across a parallel sweep.
type MetricsSink struct {
	mu       sync.Mutex
	events   *CounterVec
	handover *Histogram
	tenure   *Histogram
	last     map[runLabel]time.Duration // last activity per label
	since    map[runLabel]time.Duration // current leadership start per label
}

type runLabel struct {
	run   int64
	label string
}

// NewMetricsSink registers the protocol metrics on reg and returns the
// sink feeding them.
func NewMetricsSink(reg *Registry) *MetricsSink {
	return &MetricsSink{
		events: reg.CounterVec("envirotrack_events_total",
			"Structured protocol events by type.", "type"),
		handover: reg.Histogram("envirotrack_handover_latency_seconds",
			"Gap between the old leader's last activity and the new leader taking over.",
			HandoverLatencyBuckets),
		tenure: reg.Histogram("envirotrack_leader_tenure_seconds",
			"Duration of each leadership span, ended by takeover, yield, step-down, or deletion.",
			LeaderTenureBuckets),
		last:  make(map[runLabel]time.Duration),
		since: make(map[runLabel]time.Duration),
	}
}

// Emit implements Sink.
func (s *MetricsSink) Emit(ev Event) {
	s.events.With(ev.Type.String()).Inc()
	switch ev.Type {
	case EvHeartbeatSent, EvLabelCreated, EvLabelTakeover, EvLabelRelinquish,
		EvLabelYield, EvLabelDeleted, EvLeaderStepDown:
	default:
		return
	}
	k := runLabel{ev.Run, ev.Label}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev.Type {
	case EvHeartbeatSent:
		s.last[k] = ev.At
	case EvLabelCreated:
		s.since[k] = ev.At
		s.last[k] = ev.At
	case EvLabelTakeover, EvLabelRelinquish:
		if last, ok := s.last[k]; ok && ev.At >= last {
			s.handover.ObserveDuration(ev.At - last)
		}
		s.endTenure(k, ev.At)
		s.since[k] = ev.At
		s.last[k] = ev.At
	case EvLabelYield, EvLeaderStepDown:
		s.endTenure(k, ev.At)
		s.last[k] = ev.At
	case EvLabelDeleted:
		s.endTenure(k, ev.At)
		delete(s.last, k)
	}
}

// endTenure closes an open leadership span, if any. Caller holds s.mu.
func (s *MetricsSink) endTenure(k runLabel, at time.Duration) {
	if since, ok := s.since[k]; ok {
		if at >= since {
			s.tenure.ObserveDuration(at - since)
		}
		delete(s.since, k)
	}
}

// Events returns the per-type event counter vector.
func (s *MetricsSink) Events() *CounterVec { return s.events }
