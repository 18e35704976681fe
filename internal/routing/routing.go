// Package routing implements the location-aware, multi-hop unicast layer
// the paper assumes ("we assume that network nodes and routing are
// location-aware"): greedy geographic forwarding. Each message carries a
// destination coordinate (and optionally a specific destination node); every
// hop forwards to the neighbor strictly closest to the destination. A node
// that is a local minimum — no neighbor closer than itself — is "within one
// hop of the coordinate" and delivers the message locally, which is exactly
// the anycast the directory service needs.
package routing

import (
	"envirotrack/internal/geom"
	"envirotrack/internal/mote"
	"envirotrack/internal/obs"
	"envirotrack/internal/radio"
	"envirotrack/internal/simtime"
	"envirotrack/internal/trace"
)

// AnyNode addresses a message to whichever node is nearest the destination
// coordinate (geographic anycast).
const AnyNode radio.NodeID = -1

// DefaultTTL bounds the hop count of a routed message.
const DefaultTTL = 64

// Message is a routed payload.
type Message struct {
	Kind trace.Kind
	// Dest is the destination coordinate.
	Dest geom.Point
	// DestNode restricts delivery to a specific node; AnyNode delivers at
	// the node nearest Dest.
	DestNode radio.NodeID
	// TTL bounds hops; DefaultTTL if zero.
	TTL  int
	Bits int
	// Payload is the upper-layer message.
	Payload any
	// Corr, when non-zero, correlates every frame and lifecycle event
	// the message produces under one (origin, seq) span key. The router
	// emits report_sent / route_forward / route_delivered / route_dropped
	// events only for correlated messages.
	Corr radio.Corr
	// CorrLabel is the label (or context type) the correlated message
	// concerns, carried on the lifecycle events the router emits. It
	// lives here rather than in radio.Corr so the per-receiver Frame
	// copies on the broadcast fan-out path stay string-free.
	CorrLabel string
}

// envelope is the on-air representation.
type envelope struct {
	Msg  Message
	Hops int
}

// Target consumes the messages that terminate at a router's node.
type Target interface {
	Deliver(Message)
}

// Router provides greedy geographic forwarding on one mote.
type Router struct {
	m      *mote.Mote
	target Target
	// ldFree pools local-delivery records (intrusive list).
	ldFree *localDelivery
}

// localDelivery carries a self-addressed message through its zero-delay
// scheduler hop. Records are pooled per router.
type localDelivery struct {
	r    *Router
	msg  Message
	next *localDelivery
}

// localDeliveryFire completes a self-addressed Send. The record recycles
// before delivery, which may send (and self-deliver) further messages.
func localDeliveryFire(arg any) {
	ld := arg.(*localDelivery)
	r, msg := ld.r, ld.msg
	ld.msg = Message{}
	ld.next = r.ldFree
	r.ldFree = ld
	r.deliverLocal(msg)
}

// NewRouter allocates a router and initialises it (Init).
func NewRouter(m *mote.Mote, target Target) *Router {
	r := new(Router)
	r.Init(m, target)
	return r
}

// Init makes r the router of mote m, which delivers the messages that
// terminate at the mote to target. The mote's receiver hands the router
// its frames (see HandleFrame).
func (r *Router) Init(m *mote.Mote, target Target) {
	*r = Router{m: m, target: target}
}

// Send routes a message from this node. If this node is itself the
// destination the message is delivered locally (after a zero-delay hop
// through the scheduler to keep delivery asynchronous).
func (r *Router) Send(msg Message) {
	if msg.TTL <= 0 {
		msg.TTL = DefaultTTL
	}
	// Origination of a correlated message: the span-opening event. Chain
	// forwarders (MTP) re-enter Send at intermediate nodes with the same
	// corr; only the true origin opens the span.
	if msg.Corr.Seq != 0 && radio.NodeID(msg.Corr.Origin) == r.m.ID() {
		r.emit(obs.EvReportSent, msg.DestNode, msg, "")
	}
	env := envelope{Msg: msg}
	if r.isDestination(msg) {
		ld := r.ldFree
		if ld != nil {
			r.ldFree = ld.next
			ld.next = nil
		} else {
			ld = &localDelivery{r: r}
		}
		ld.msg = msg
		r.m.Scheduler().AfterEventOwned(0, simtime.OwnerRouting, localDeliveryFire, ld)
		return
	}
	r.forward(env)
}

// isDestination reports whether this node terminates the message.
func (r *Router) isDestination(msg Message) bool {
	if msg.DestNode != AnyNode {
		return msg.DestNode == r.m.ID()
	}
	// Anycast: terminate when no neighbor is closer to the coordinate.
	_, ok := r.nextHop(msg)
	return !ok
}

// nextHop picks the neighbor strictly closest to the destination (closer
// than this node), breaking ties by id. A specific destination that is a
// direct neighbor is the next hop, even if it is not geographically
// closer.
func (r *Router) nextHop(msg Message) (radio.NodeID, bool) {
	self := r.m.Pos().Dist2(msg.Dest)
	best := radio.NodeID(-1)
	bestD := self
	for _, nb := range r.m.Medium().Neighbors(r.m.ID()) {
		if nb.ID() == msg.DestNode {
			return nb.ID(), true
		}
		d := nb.Pos().Dist2(msg.Dest)
		if d < bestD || (d == bestD && best >= 0 && nb.ID() < best) {
			if d < self {
				best, bestD = nb.ID(), d
			}
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

func (r *Router) forward(env envelope) {
	msg := env.Msg
	next, ok := r.nextHop(msg)
	if !ok {
		if msg.Corr.Seq != 0 {
			r.emit(obs.EvRouteDropped, msg.DestNode, msg, "dead_end")
		}
		return
	}
	r.transmit(next, env)
}

func (r *Router) transmit(to radio.NodeID, env envelope) {
	env.Hops++
	kind := env.Msg.Kind
	if kind == "" {
		kind = trace.KindTransport
	}
	if env.Msg.Corr.Seq != 0 && env.Hops > 1 {
		// Relays after the first transmission; the origination hop is
		// already marked by report_sent.
		r.emit(obs.EvRouteForward, to, env.Msg, "")
	}
	r.m.SendTraced(kind, to, env.Msg.Bits, env, env.Msg.Corr)
}

// HandleFrame consumes a routed frame: it delivers the message at its
// destination and forwards or drops it elsewhere. It returns false, and
// does nothing, for a frame that carries no routed message.
func (r *Router) HandleFrame(f radio.Frame) bool {
	env, ok := f.Payload.(envelope)
	if !ok {
		return false
	}
	msg := env.Msg
	if r.isDestination(msg) {
		r.deliverLocal(msg)
		return true
	}
	if env.Hops >= msg.TTL {
		if msg.Corr.Seq != 0 {
			r.emit(obs.EvRouteDropped, msg.DestNode, msg, "ttl")
		}
		return true
	}
	r.forward(env)
	return true
}

func (r *Router) deliverLocal(msg Message) {
	if msg.Corr.Seq != 0 {
		r.emit(obs.EvRouteDelivered, radio.NodeID(msg.Corr.Origin), msg, "")
	}
	r.target.Deliver(msg)
}

// emit publishes one routed-lifecycle event carrying the message's
// correlation key. Mote is this node; Peer is the event-specific other
// party (intended destination, next hop, or origin for deliveries).
func (r *Router) emit(t obs.EventType, peer radio.NodeID, msg Message, cause string) {
	bus := r.m.Obs()
	if !bus.Active() {
		return
	}
	kind := msg.Kind
	if kind == "" {
		kind = trace.KindTransport
	}
	bus.Emit(obs.Event{
		At: r.m.Scheduler().Now(), Type: t, Mote: int(r.m.ID()), Peer: int(peer),
		Pos: r.m.Pos(), Kind: kind, Cause: cause,
		Label: msg.CorrLabel, Origin: int(msg.Corr.Origin), Seq: uint64(msg.Corr.Seq),
	})
}
