// Package transport implements MTP, EnviroTrack's transport layer
// (Section 5.4): remote method invocation between context labels.
// Connections are identified by (label, port) pairs; every outgoing
// datagram identifies the source's current leader in its header, so that
// endpoints keep per-label last-known-leader tables (LRU-replaced) up to
// date. Messages addressed to an out-of-date leader are forwarded along
// the chain of past leaders toward the label's current leader.
package transport

import (
	"strings"

	"envirotrack/internal/directory"
	"envirotrack/internal/geom"
	"envirotrack/internal/group"
	"envirotrack/internal/mote"
	"envirotrack/internal/obs"
	"envirotrack/internal/radio"
	"envirotrack/internal/routing"
	"envirotrack/internal/trace"
)

// PortID identifies a method endpoint within a context label.
type PortID uint16

// MaxForwardChain bounds forwarding along past leaders.
const MaxForwardChain = 8

// Datagram is one MTP message between (label, port) endpoints.
type Datagram struct {
	SrcLabel group.Label
	SrcPort  PortID
	DstLabel group.Label
	DstPort  PortID
	// SrcLeader and SrcLoc identify the source's current leader, carried
	// in every message so receivers refresh their leader tables.
	SrcLeader radio.NodeID
	SrcLoc    geom.Point
	Payload   any
	// Chain counts forwarding steps along past leaders.
	Chain int
	// Corr is the datagram's causal-correlation header, minted once at the
	// originating endpoint and preserved verbatim across chain forwards, so
	// every frame and transport event of one datagram shares a span key.
	Corr radio.Corr
}

// messageBits sizes MTP frames on the air.
const messageBits = 64 * 8

// Stats counts endpoint-level outcomes.
type Stats struct {
	Delivered      uint64 // datagrams handed to a local port handler
	ChainForwarded uint64 // datagrams forwarded along past leaders
	NoRoute        uint64 // datagrams dropped: no leader known anywhere
	NoHandler      uint64 // datagrams that reached a leader without a handler
}

type portKey struct {
	label group.Label
	port  PortID
}

// Endpoint is the per-mote MTP component. IMPORTANT: because it snoops
// group heartbeats without consuming them, it must be attached to the mote
// *before* the group.Manager in frame-handler order.
type Endpoint struct {
	m      *mote.Mote
	router *routing.Router
	dir    *directory.Service

	// The table and maps stay empty, and unallocated, until first written:
	// most motes never lead a label, serve a port or learn a leader.
	table    LeaderTable
	handlers map[portKey]func(Datagram)
	leading  map[group.Label]bool

	// Stats exposes delivery accounting for tests and experiments.
	Stats Stats
}

// NewEndpoint attaches an MTP endpoint to the mote. dir may be nil; then
// first-contact sends to unknown labels fail until a heartbeat or incoming
// datagram teaches the endpoint the label's leader.
func NewEndpoint(m *mote.Mote, router *routing.Router, dir *directory.Service) *Endpoint {
	e := &Endpoint{m: m, router: router, dir: dir}
	m.AddFrameHandler(e.snoopHeartbeat)
	router.AddHandler(e.handleRouted)
	return e
}

// SetLeading tells the endpoint whether this mote currently leads a label.
// The middleware calls it from the group manager's leadership callbacks.
func (e *Endpoint) SetLeading(label group.Label, leading bool) {
	if leading {
		if e.leading == nil {
			e.leading = make(map[group.Label]bool)
		}
		e.leading[label] = true
		return
	}
	delete(e.leading, label)
}

// Leading reports whether this mote leads the label.
func (e *Endpoint) Leading(label group.Label) bool {
	return e.leading[label]
}

// Handle installs the handler for a (label, port) connection endpoint.
func (e *Endpoint) Handle(label group.Label, port PortID, fn func(Datagram)) {
	if e.handlers == nil {
		e.handlers = make(map[portKey]func(Datagram))
	}
	e.handlers[portKey{label: label, port: port}] = fn
}

// Unhandle removes a port handler.
func (e *Endpoint) Unhandle(label group.Label, port PortID) {
	delete(e.handlers, portKey{label: label, port: port})
}

// Table exposes the last-known-leader table (for inspection and tests).
func (e *Endpoint) Table() *LeaderTable {
	return &e.table
}

// Send transmits a datagram from this mote toward the destination label's
// leader. The source header fields are stamped automatically. If the
// destination label is unknown, the directory is consulted first (the
// paper's "first contacted" path); later messages use the cached leader.
func (e *Endpoint) Send(d Datagram) {
	d.SrcLeader = e.m.ID()
	d.SrcLoc = e.m.Pos()
	if d.Corr.Seq == 0 {
		d.Corr = radio.Corr{Origin: int32(e.m.ID()), Seq: e.m.NextCorrSeq()}
	}
	if info, ok := e.table.Get(d.DstLabel); ok {
		e.routeTo(info, d)
		return
	}
	if e.dir == nil {
		e.Stats.NoRoute++
		e.emit(obs.EvTransportNoRoute, d, int(d.SrcLeader), "no_directory")
		return
	}
	ctxType := labelType(d.DstLabel)
	e.dir.Query(ctxType, func(entries []directory.Entry) {
		for _, ent := range entries {
			if ent.Label == d.DstLabel {
				info := LeaderInfo{Leader: ent.Leader, Loc: ent.Location, UpdatedAt: ent.UpdatedAt}
				e.table.Put(d.DstLabel, info)
				e.routeTo(info, d)
				return
			}
		}
		e.Stats.NoRoute++
		e.emit(obs.EvTransportNoRoute, d, int(d.SrcLeader), "label_unknown")
	})
}

func (e *Endpoint) routeTo(info LeaderInfo, d Datagram) {
	e.router.Send(routing.Message{
		Kind:      trace.KindTransport,
		Dest:      info.Loc,
		DestNode:  info.Leader,
		Bits:      messageBits,
		Payload:   d,
		Corr:      d.Corr,
		CorrLabel: string(d.DstLabel),
	})
}

// handleRouted processes a datagram that terminated at this node.
func (e *Endpoint) handleRouted(msg routing.Message) bool {
	d, ok := msg.Payload.(Datagram)
	if !ok {
		return false
	}
	// Refresh our view of the source label's leadership from the header.
	if d.SrcLabel != "" {
		e.table.Put(d.SrcLabel, LeaderInfo{
			Leader:    d.SrcLeader,
			Loc:       d.SrcLoc,
			UpdatedAt: e.m.Scheduler().Now(),
		})
	}

	if e.leading[d.DstLabel] {
		if fn, ok := e.handlers[portKey{label: d.DstLabel, port: d.DstPort}]; ok {
			e.Stats.Delivered++
			e.emit(obs.EvTransportDelivered, d, int(d.SrcLeader), "")
			fn(d)
		} else {
			e.Stats.NoHandler++
		}
		return true
	}

	// Not the current leader: forward along the past-leader chain if we
	// know a fresher leader.
	if d.Chain >= MaxForwardChain {
		e.Stats.NoRoute++
		e.emit(obs.EvTransportNoRoute, d, int(d.SrcLeader), "chain_exhausted")
		return true
	}
	if info, ok := e.table.Get(d.DstLabel); ok && info.Leader != e.m.ID() {
		d.Chain++
		e.Stats.ChainForwarded++
		e.emit(obs.EvTransportHop, d, int(info.Leader), "")
		e.routeTo(info, d)
		return true
	}
	e.Stats.NoRoute++
	e.emit(obs.EvTransportNoRoute, d, int(d.SrcLeader), "no_leader_known")
	return true
}

// emit publishes one transport event: Label/Origin/Seq carry the
// datagram's correlation key (chain depth is recoverable as the number of
// preceding transport_hop events in the span) and peer is the other node
// involved (the source leader for delivery/drop, the next-hop leader for a
// chain hop).
func (e *Endpoint) emit(ev obs.EventType, d Datagram, peer int, cause string) {
	if bus := e.m.Obs(); bus.Active() {
		bus.Emit(obs.Event{
			At:      e.m.Scheduler().Now(),
			Type:    ev,
			Mote:    int(e.m.ID()),
			Peer:    peer,
			Label:   string(d.DstLabel),
			CtxType: labelType(d.DstLabel),
			Pos:     e.m.Pos(),
			Kind:    trace.KindTransport,
			Seq:     uint64(d.Corr.Seq),
			Origin:  int(d.Corr.Origin),
			Cause:   cause,
		})
	}
}

// snoopHeartbeat watches group heartbeats (without consuming them) to keep
// the leader table current; past leaders near a moving group keep fresh
// forwarding state this way.
func (e *Endpoint) snoopHeartbeat(f radio.Frame) bool {
	if hb, ok := f.Payload.(group.Heartbeat); ok {
		e.table.Put(hb.Label, LeaderInfo{
			Leader:    hb.Leader,
			Loc:       hb.LeaderLoc,
			UpdatedAt: e.m.Scheduler().Now(),
		})
	}
	return false // never consume: the group manager handles heartbeats
}

// labelType extracts the context type from a label of the canonical
// "type/mote.seq" form.
func labelType(l group.Label) string {
	s := string(l)
	if i := strings.IndexByte(s, '/'); i >= 0 {
		return s[:i]
	}
	return s
}
