// Package obs is the simulator's observability layer: a typed event bus
// the protocol layers (group, mote, radio, transport, directory) publish
// structured events to, pluggable sinks that consume them (JSONL export,
// bounded ring buffer, counters, metrics), a metrics registry with
// Prometheus text-format and expvar exposition, and a time-series sampler
// that snapshots simulation health on a sim-time cadence.
//
// The bus is designed so that a disabled observer is free on the hot
// path: every emission site guards with Bus.Active(), which on a nil bus
// is a single nil check, and event construction is skipped entirely.
// Sinks only observe — they never draw randomness or touch the
// scheduler — so attaching any sink cannot perturb a seeded run.
package obs

import (
	"strconv"
	"time"

	"envirotrack/internal/geom"
	"envirotrack/internal/trace"
)

// EventType classifies a structured event.
type EventType uint8

// Event taxonomy. Grouped by the emitting layer.
const (
	// group management
	EvHeartbeatSent       EventType = iota + 1 // leader heartbeat broadcast
	EvHeartbeatForwarded                       // member rebroadcast (h-hop flood)
	EvHeartbeatSuppressed                      // rebroadcast cancelled by storm suppression
	EvHeartbeatHeard                           // manager handled a heartbeat or relinquish of its type
	EvReceiveTimerFired                        // member receive timer expired
	EvWaitTimerArmed                           // non-member remembered a nearby label
	EvLabelCreated                             // new context label spawned
	EvLabelJoined                              // mote became a member of a label
	EvLabelTakeover                            // receive-timer leadership takeover
	EvLabelRelinquish                          // explicit relinquish accepted by successor
	EvLabelYield                               // leader yielded to a same-label leader
	EvLabelDeleted                             // label suppressed as spurious
	EvLeaderStepDown                           // leader stopped sensing and stepped down
	// radio medium
	EvFrameSent        // transmission put on the air
	EvFrameReceived    // successful reception at a target
	EvFrameLost        // reception failed (cause: random/collision)
	EvFrameUndelivered // transmission received by nobody
	// mote CPU
	EvCPUOverload // frame dropped: CPU queue full
	// transport (MTP)
	EvTransportHop       // datagram forwarded along the past-leader chain
	EvTransportDelivered // datagram handed to a port handler
	EvTransportNoRoute   // datagram dropped: no leader known, or no handler at it
	// directory
	EvDirectoryUpdated // directory replica applied a register/unregister
	EvDirectoryQuery   // directory node answered a query
	// fault injection
	EvMoteFailed   // mote crashed (chaos schedule or manual Fail)
	EvMoteRestored // mote revived after a crash
	// report lifecycle (causal tracing; emitted only for correlated
	// messages, i.e. those carrying an (origin, seq) header)
	EvReportSent     // correlated message originated at its source mote
	EvRouteForward   // routed message relayed one hop toward its destination
	EvRouteDelivered // routed message terminated at its destination node
	// EvRouteDropped: a routed message discarded (cause: ttl/dead_end),
	// or a member reading that reached a mote no longer leading its label
	// (cause: stale_leader, emitted by the group manager)
	EvRouteDropped
)

// eventNames maps types to their stable wire names (used in JSONL export
// and metric label values). Indexed by EventType: the JSONL sink calls
// String() per event, so the lookup is a bounds-checked array load rather
// than a map probe.
var eventNames = [...]string{
	EvHeartbeatSent:       "heartbeat_sent",
	EvHeartbeatForwarded:  "heartbeat_forwarded",
	EvHeartbeatSuppressed: "heartbeat_suppressed",
	EvHeartbeatHeard:      "heartbeat_heard",
	EvReceiveTimerFired:   "receive_timer_fired",
	EvWaitTimerArmed:      "wait_timer_armed",
	EvLabelCreated:        "label_created",
	EvLabelJoined:         "label_joined",
	EvLabelTakeover:       "label_takeover",
	EvLabelRelinquish:     "label_relinquish",
	EvLabelYield:          "label_yield",
	EvLabelDeleted:        "label_deleted",
	EvLeaderStepDown:      "leader_step_down",
	EvFrameSent:           "frame_sent",
	EvFrameReceived:       "frame_received",
	EvFrameLost:           "frame_lost",
	EvFrameUndelivered:    "frame_undelivered",
	EvCPUOverload:         "cpu_overload",
	EvTransportHop:        "transport_hop",
	EvTransportDelivered:  "transport_delivered",
	EvTransportNoRoute:    "transport_no_route",
	EvDirectoryUpdated:    "directory_updated",
	EvDirectoryQuery:      "directory_query",
	EvMoteFailed:          "mote_failed",
	EvMoteRestored:        "mote_restored",
	EvReportSent:          "report_sent",
	EvRouteForward:        "route_forward",
	EvRouteDelivered:      "route_delivered",
	EvRouteDropped:        "route_dropped",
}

// String implements fmt.Stringer.
func (t EventType) String() string {
	if int(t) < len(eventNames) && eventNames[t] != "" {
		return eventNames[t]
	}
	return "EventType(" + strconv.Itoa(int(t)) + ")"
}

// LabelEvent maps a coherence-ledger label event onto the event
// taxonomy, so every coherence-relevant transition of either tracking
// backend also reaches the event bus.
func LabelEvent(t trace.LabelEventType) (EventType, bool) {
	switch t {
	case trace.LabelCreated:
		return EvLabelCreated, true
	case trace.LabelTakeover:
		return EvLabelTakeover, true
	case trace.LabelRelinquish:
		return EvLabelRelinquish, true
	case trace.LabelYield:
		return EvLabelYield, true
	case trace.LabelDeleted:
		return EvLabelDeleted, true
	}
	return 0, false
}

// Event is one structured observation. The common fields (sim time,
// emitting mote, its position, label, context type) are always set where
// meaningful; the remainder carry per-type detail: Peer is the other mote
// involved (successor, frame destination, past leader), Kind the radio
// message class, Seq a heartbeat sequence or chain depth, Bits the frame
// size on the air, and Cause a loss cause or detail string.
//
// Correlated messages additionally carry the causal span key the
// SpanSink and ettrace reassemble lifecycles from: (Label, Origin, Seq)
// identifies one logical message end to end, and Frame ties frame-
// level events (sent/received/lost/overload) to one physical
// transmission, distinguishing retransmissions and duplicates of the
// same logical message.
type Event struct {
	At      time.Duration
	Type    EventType
	Mote    int
	Peer    int
	Label   string
	CtxType string
	Pos     geom.Point
	Kind    trace.Kind
	Seq     uint64
	Bits    int
	Cause   string
	// Origin is the mote that originated the correlated message this
	// event belongs to. A non-empty Label marks the event as correlated;
	// Origin and Seq are only meaningful then (mote 0 as an origin
	// round-trips through the omit-zero JSONL encoding unambiguously
	// because span keys always include the label).
	Origin int
	// Frame is the medium-stamped transmission id: the sender in the high
	// 32 bits, its send count in the low 32 (0 = none).
	Frame uint64
	// Run tags the event with the run it came from (the scenario seed, in
	// the eval harnesses); stamped by the bus so sinks shared across a
	// parallel sweep can attribute interleaved events.
	Run int64
}

// Sink consumes events. Implementations in this package are safe for
// concurrent use, so a single sink can be shared by parallel runs.
type Sink interface {
	Emit(Event)
}

// Bus fans events out to its sinks. A nil *Bus is a valid, disabled bus:
// Active() is false and Emit is a no-op, so protocol layers hold a *Bus
// unconditionally and pay one nil check when observability is off.
type Bus struct {
	sinks []Sink
	run   int64
}

// NewBus builds a bus over the given sinks. Nil sinks are dropped; a bus
// with no sinks is inactive.
func NewBus(sinks ...Sink) *Bus {
	b := &Bus{}
	for _, s := range sinks {
		if s != nil {
			b.sinks = append(b.sinks, s)
		}
	}
	return b
}

// SetRun sets the run tag stamped into every event emitted through this
// bus (the eval harnesses use the scenario seed).
func (b *Bus) SetRun(run int64) {
	if b != nil {
		b.run = run
	}
}

// Active reports whether emitting through this bus can observe anything.
// Emission sites guard event construction with it:
//
//	if bus := m.Obs(); bus.Active() {
//	    bus.Emit(obs.Event{...})
//	}
func (b *Bus) Active() bool {
	return b != nil && len(b.sinks) > 0
}

// Emit stamps the run tag and delivers ev to every sink, in order.
func (b *Bus) Emit(ev Event) {
	if b == nil || len(b.sinks) == 0 {
		return
	}
	ev.Run = b.run
	for _, s := range b.sinks {
		s.Emit(ev)
	}
}
