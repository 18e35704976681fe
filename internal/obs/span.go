package obs

import (
	"sort"
	"sync"
	"time"

	"envirotrack/internal/trace"
)

// SpanSink assembles causal report-lifecycle spans from the event stream.
//
// A *report span* is the end-to-end life of one correlated message,
// keyed by (run, origin, seq) — every layer mints sequence numbers from
// one per-mote counter, so the pair is unique within a run and frame
// events need not carry the label. The report_sent event opens the span
// (and contributes its label); frame_sent/frame_received pairs (grouped
// by their medium-stamped transmission id) become its per-hop waterfall,
// and it closes on the layer-appropriate delivery event — transport_delivered for MTP
// datagrams, route_delivered for everything else. A span that never
// closes is attributed a root cause from the causal evidence it
// accumulated: an explicit drop event, a CPU-overload drop, the loss
// cause of its last on-air frame, a crashed receiver, or in_flight for
// messages the run's end cut off.
//
// A *handover span* captures one leadership takeover of a label: the old
// leader's last heartbeat, the takeover instant, and the bounded chain of
// causal events (heartbeats, crashes, receive-timer expiry) in between.
//
// The sink is safe for concurrent use and keys everything by run, so one
// sink may observe a parallel sweep. It works identically live (attached
// to a bus) and offline (fed ParseEvent output); cmd/ettrace is the
// latter.
type SpanSink struct {
	mu        sync.Mutex
	reports   map[spanKey]*ReportSpan
	handovers []HandoverSpan
	labels    map[labelKey]*labelState
	fails     map[runMote][]failInterval
	finalized bool
}

type spanKey struct {
	run    int64
	origin int
	seq    uint64
}

type labelKey struct {
	run   int64
	label string
}

type runMote struct {
	run  int64
	mote int
}

// failInterval is one [from, to) mote-failure window; to < 0 means still
// failed.
type failInterval struct {
	from, to time.Duration
}

// Hop is one radio transmission of a span's message.
type Hop struct {
	Frame   uint64        // medium transmission id
	From    int           // transmitting mote
	To      int           // resolving mote (receiver); -1 while pending
	SentAt  time.Duration // transmission start
	EndAt   time.Duration // reception resolution; zero while pending
	Outcome string        // received | collision | random | undelivered | pending
	Kind    trace.Kind
}

// ReportSpan is the assembled end-to-end life of one correlated message.
type ReportSpan struct {
	Run    int64
	Label  string
	Origin int
	Seq    uint64
	Kind   trace.Kind

	Src    int // originating mote
	Dst    int // intended destination (report_sent peer)
	SentAt time.Duration

	Delivered   bool
	DeliveredAt time.Duration
	DeliveredTo int
	// Latency is DeliveredAt - SentAt for delivered spans.
	Latency time.Duration

	// RootCause attributes an undelivered span: no_route | ttl |
	// stale_leader | cpu_overload | collision | random | crashed_mote |
	// in_flight. Empty for delivered spans.
	RootCause string

	Hops      []Hop
	Forwards  int // route_forward relays
	ChainHops int // transport chain forwards
	Events    int // correlated events folded into the span

	// internal evidence for root-cause resolution
	dropCause    string
	overloadAt   time.Duration
	hasOverload  bool
	routeDelAt   time.Duration
	hasRouteDel  bool
	transpDelAt  time.Duration
	hasTranspDel bool
	transpDelTo  int
	routeDelTo   int
}

// SpanEvent is one entry of a handover span's causal chain.
type SpanEvent struct {
	At   time.Duration
	Type EventType
	Mote int
}

// HandoverSpan is one leadership takeover with its causal context.
type HandoverSpan struct {
	Run       int64
	Label     string
	OldLeader int
	NewLeader int
	// LastOldLeaderAt is the old leader's last observed heartbeat (zero
	// when the label had no prior heartbeat).
	LastOldLeaderAt time.Duration
	TakeoverAt      time.Duration
	// Gap is TakeoverAt - LastOldLeaderAt (the leadership silence the
	// takeover ended); zero when no prior heartbeat was seen.
	Gap time.Duration
	// Chain is the bounded tail of causal events leading to the takeover.
	Chain []SpanEvent
}

// handoverChainCap bounds the causal chain retained per label.
const handoverChainCap = 32

// labelState is the per-(run, label) handover bookkeeping.
type labelState struct {
	leader   int // current leader; -1 unknown
	lastHBAt time.Duration
	hasHB    bool
	chain    []SpanEvent // ring, oldest first after unwrap
	next     int
}

// NewSpanSink returns an empty span assembler.
func NewSpanSink() *SpanSink {
	return &SpanSink{
		reports: make(map[spanKey]*ReportSpan),
		labels:  make(map[labelKey]*labelState),
		fails:   make(map[runMote][]failInterval),
	}
}

// Emit implements Sink.
func (s *SpanSink) Emit(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()

	switch ev.Type {
	case EvMoteFailed:
		k := runMote{ev.Run, ev.Mote}
		s.fails[k] = append(s.fails[k], failInterval{from: ev.At, to: -1})
		s.chainNote(ev)
		return
	case EvMoteRestored:
		k := runMote{ev.Run, ev.Mote}
		if iv := s.fails[k]; len(iv) > 0 && iv[len(iv)-1].to < 0 {
			iv[len(iv)-1].to = ev.At
		}
		return
	case EvHeartbeatSent, EvReceiveTimerFired, EvLabelCreated, EvLabelRelinquish,
		EvLeaderStepDown, EvLabelYield, EvLabelDeleted:
		s.chainNote(ev)
		return
	case EvLabelTakeover:
		s.takeover(ev)
		return
	}

	// Only report-lifecycle event types participate in span assembly;
	// other correlated traffic (heartbeat frames match the frame cases
	// above, but e.g. heartbeat_forwarded carries a protocol sequence in
	// Seq that is not a correlation key).
	switch ev.Type {
	case EvReportSent, EvFrameSent, EvFrameReceived, EvFrameLost, EvFrameUndelivered,
		EvRouteForward, EvTransportHop, EvRouteDelivered, EvTransportDelivered,
		EvRouteDropped, EvTransportNoRoute, EvCPUOverload:
	default:
		return
	}
	if ev.Seq == 0 {
		return // uncorrelated traffic (correlation sequences are 1-based)
	}
	key := spanKey{ev.Run, ev.Origin, ev.Seq}

	if ev.Type == EvReportSent {
		if sp, ok := s.reports[key]; ok {
			sp.Events++ // redundant re-send of the same message (e.g. unregister repeats)
			return
		}
		s.reports[key] = &ReportSpan{
			Run: ev.Run, Label: ev.Label, Origin: ev.Origin, Seq: ev.Seq,
			Kind: ev.Kind, Src: ev.Mote, Dst: ev.Peer, SentAt: ev.At,
			Events: 1,
		}
		return
	}

	sp, ok := s.reports[key]
	if !ok {
		return // correlated but span-less traffic (heartbeat floods)
	}
	sp.Events++

	switch ev.Type {
	case EvFrameSent:
		sp.Hops = append(sp.Hops, Hop{
			Frame: ev.Frame, From: ev.Mote, To: -1,
			SentAt: ev.At, Outcome: "pending", Kind: ev.Kind,
		})
	case EvFrameReceived:
		sp.resolveHop(ev, "received")
	case EvFrameLost:
		sp.resolveHop(ev, ev.Cause) // collision | random
	case EvFrameUndelivered:
		sp.resolveHop(ev, "undelivered")
	case EvRouteForward:
		sp.Forwards++
	case EvTransportHop:
		sp.ChainHops++
	case EvRouteDelivered:
		if !sp.hasRouteDel {
			sp.hasRouteDel = true
			sp.routeDelAt = ev.At
			sp.routeDelTo = ev.Mote
		}
	case EvTransportDelivered:
		if !sp.hasTranspDel {
			sp.hasTranspDel = true
			sp.transpDelAt = ev.At
			sp.transpDelTo = ev.Mote
		}
	case EvRouteDropped:
		if sp.dropCause == "" {
			sp.dropCause = ev.Cause // dead_end | ttl | stale_leader
		}
	case EvTransportNoRoute:
		if sp.dropCause == "" {
			sp.dropCause = "no_route"
		}
	case EvCPUOverload:
		sp.hasOverload = true
		sp.overloadAt = ev.At
	}
}

// resolveHop closes the pending hop with ev's transmission id. Undelivered
// frames resolve at the sender, so To stays -1 for them.
func (sp *ReportSpan) resolveHop(ev Event, outcome string) {
	for i := len(sp.Hops) - 1; i >= 0; i-- {
		h := &sp.Hops[i]
		if h.Frame == ev.Frame && h.Outcome == "pending" {
			h.EndAt = ev.At
			h.Outcome = outcome
			if outcome != "undelivered" {
				h.To = ev.Mote
			}
			return
		}
	}
	// A resolution without a visible send (trace cut at the front):
	// synthesize the hop so the evidence is not dropped.
	to := -1
	if outcome != "undelivered" {
		to = ev.Mote
	}
	sp.Hops = append(sp.Hops, Hop{
		Frame: ev.Frame, From: ev.Peer, To: to,
		SentAt: ev.At, EndAt: ev.At, Outcome: outcome, Kind: ev.Kind,
	})
}

// chainNote records a causal event into the label's handover chain.
func (s *SpanSink) chainNote(ev Event) {
	if ev.Label == "" {
		return
	}
	st := s.labelState(ev.Run, ev.Label)
	if ev.Type == EvHeartbeatSent {
		st.leader = ev.Mote
		st.lastHBAt = ev.At
		st.hasHB = true
	}
	st.push(SpanEvent{At: ev.At, Type: ev.Type, Mote: ev.Mote})
}

func (s *SpanSink) labelState(run int64, label string) *labelState {
	k := labelKey{run, label}
	st, ok := s.labels[k]
	if !ok {
		st = &labelState{leader: -1}
		s.labels[k] = st
	}
	return st
}

func (st *labelState) push(ev SpanEvent) {
	if len(st.chain) < handoverChainCap {
		st.chain = append(st.chain, ev)
		return
	}
	st.chain[st.next] = ev
	st.next = (st.next + 1) % handoverChainCap
}

// unwrap returns the chain oldest-first.
func (st *labelState) unwrap() []SpanEvent {
	out := make([]SpanEvent, 0, len(st.chain))
	out = append(out, st.chain[st.next:]...)
	out = append(out, st.chain[:st.next]...)
	return out
}

func (s *SpanSink) takeover(ev Event) {
	st := s.labelState(ev.Run, ev.Label)
	st.push(SpanEvent{At: ev.At, Type: ev.Type, Mote: ev.Mote})
	h := HandoverSpan{
		Run:        ev.Run,
		Label:      ev.Label,
		OldLeader:  st.leader,
		NewLeader:  ev.Mote,
		TakeoverAt: ev.At,
		Chain:      st.unwrap(),
	}
	if st.hasHB {
		h.LastOldLeaderAt = st.lastHBAt
		h.Gap = ev.At - st.lastHBAt
	}
	s.handovers = append(s.handovers, h)
	st.leader = ev.Mote
}

// failedAt reports whether the mote was inside a failure window at t.
func (s *SpanSink) failedAt(run int64, mote int, t time.Duration) bool {
	for _, iv := range s.fails[runMote{run, mote}] {
		if t >= iv.from && (iv.to < 0 || t < iv.to) {
			return true
		}
	}
	return false
}

// finalize computes delivery status and root causes for every span, once;
// Reports and Handovers call it.
func (s *SpanSink) finalize() {
	if s.finalized {
		return
	}
	s.finalized = true
	for _, sp := range s.reports {
		s.resolve(sp)
	}
}

// resolve decides a span's outcome from its accumulated evidence.
func (s *SpanSink) resolve(sp *ReportSpan) {
	// Delivery: MTP datagrams complete at the transport layer (a
	// route_delivered merely marks a chain stop); everything else
	// completes at routing (or the group layer, for member readings).
	if sp.Kind == trace.KindTransport {
		if sp.hasTranspDel {
			sp.Delivered = true
			sp.DeliveredAt = sp.transpDelAt
			sp.DeliveredTo = sp.transpDelTo
		}
	} else if sp.hasRouteDel {
		sp.Delivered = true
		sp.DeliveredAt = sp.routeDelAt
		sp.DeliveredTo = sp.routeDelTo
	}
	if sp.Delivered {
		sp.Latency = sp.DeliveredAt - sp.SentAt
		return
	}

	// Root cause, in decreasing order of evidence strength.
	if sp.dropCause != "" {
		switch sp.dropCause {
		case "dead_end":
			sp.RootCause = "no_route"
		default:
			sp.RootCause = sp.dropCause // ttl | stale_leader | no_route
		}
		return
	}
	if sp.hasOverload {
		sp.RootCause = "cpu_overload"
		return
	}
	// The last resolved transmission tells the last-mile story.
	var last *Hop
	pending := false
	for i := range sp.Hops {
		h := &sp.Hops[i]
		if h.Outcome == "pending" {
			pending = true
			continue
		}
		if last == nil || h.EndAt >= last.EndAt {
			last = h
		}
	}
	switch {
	case last == nil:
		// No transmission resolved: cut off by the end of the run (or the
		// message never reached the air before its sender crashed).
		sp.RootCause = "in_flight"
	case last.Outcome == "collision":
		sp.RootCause = "collision"
	case last.Outcome == "random":
		sp.RootCause = "random"
	case last.Outcome == "undelivered":
		sp.RootCause = "no_route"
	case last.Outcome == "received":
		if s.failedAt(sp.Run, last.To, last.EndAt) {
			sp.RootCause = "crashed_mote"
		} else if pending {
			sp.RootCause = "in_flight"
		} else {
			// Received by a live mote with no further trace: the message
			// sat in a queue (or handler) when the run ended.
			sp.RootCause = "in_flight"
		}
	default:
		sp.RootCause = "in_flight"
	}
}

// Reports returns every report span, ordered by (Run, SentAt, Origin,
// Seq). It finalizes the sink.
func (s *SpanSink) Reports() []ReportSpan {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finalize()
	out := make([]ReportSpan, 0, len(s.reports))
	for _, sp := range s.reports {
		cp := *sp
		cp.Hops = append([]Hop(nil), sp.Hops...)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Run != b.Run {
			return a.Run < b.Run
		}
		if a.SentAt != b.SentAt {
			return a.SentAt < b.SentAt
		}
		if a.Origin != b.Origin {
			return a.Origin < b.Origin
		}
		return a.Seq < b.Seq
	})
	return out
}

// Handovers returns every handover span in observation order (finalizing
// the sink).
func (s *SpanSink) Handovers() []HandoverSpan {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finalize()
	out := make([]HandoverSpan, len(s.handovers))
	copy(out, s.handovers)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Run != out[j].Run {
			return out[i].Run < out[j].Run
		}
		return out[i].TakeoverAt < out[j].TakeoverAt
	})
	return out
}
