package core

import (
	"time"

	"envirotrack/internal/aggregate"
	"envirotrack/internal/directory"
	"envirotrack/internal/geom"
	"envirotrack/internal/group"
	"envirotrack/internal/radio"
	"envirotrack/internal/routing"
	"envirotrack/internal/simtime"
	"envirotrack/internal/trace"
	"envirotrack/internal/transport"
)

// Ctx is the enclosing-context API visible to object method bodies: reads
// of aggregate state variables (with the Section 3.2.3 validity
// semantics), the context's own label (`self:label`), message sending, and
// persistent state. Method bodies receive it as their first argument, the
// analogue of the implicit context access the preprocessor generates.
type Ctx struct {
	stack *Stack
	rt    *ctxRuntime // nil for static objects
	label group.Label

	// windows holds a tracking object's aggregate state variables, nil
	// for static objects and once the context is retired; ports and
	// tickers (directory refresh last) serve the objects.
	windows map[string]*aggregate.Window
	tickers []*simtime.Ticker
	ports   []transport.PortID
}

// live reports whether the context still serves its objects: a static
// object's always does, a tracking object's while its runtime holds it
// (from activation to deactivation).
func (c *Ctx) live() bool { return c.rt == nil || c.rt.ctx == c }

// Label returns the enclosing context label (self:label).
func (c *Ctx) Label() group.Label { return c.label }

// Now returns the current virtual time.
func (c *Ctx) Now() time.Duration { return c.stack.m.Scheduler().Now() }

// MoteID returns the mote currently executing the object (the leader).
func (c *Ctx) MoteID() radio.NodeID { return c.stack.m.ID() }

// MotePos returns the executing mote's position.
func (c *Ctx) MotePos() geom.Point { return c.stack.m.Pos() }

// Read evaluates an aggregate state variable. The boolean is the valid
// flag: false when the critical mass of fresh readings is not met (the
// "null flag" of Section 3.2.3) or when the variable does not exist.
func (c *Ctx) Read(varName string) (aggregate.Value, bool) {
	w, ok := c.windows[varName]
	if !ok {
		return aggregate.Value{}, false
	}
	return w.Read(c.Now())
}

// ReadPosition reads a position-valued aggregate variable.
func (c *Ctx) ReadPosition(varName string) (geom.Point, bool) {
	v, ok := c.Read(varName)
	if !ok || !v.IsPos {
		return geom.Point{}, false
	}
	return v.Pos, true
}

// ReadScalar reads a scalar-valued aggregate variable.
func (c *Ctx) ReadScalar(varName string) (float64, bool) {
	v, ok := c.Read(varName)
	if !ok || v.IsPos {
		return 0, false
	}
	return v.Scalar, true
}

// FreshCount returns how many distinct sensors currently contribute fresh
// readings to a variable (0 for unknown variables).
func (c *Ctx) FreshCount(varName string) int {
	w, ok := c.windows[varName]
	if !ok {
		return 0
	}
	return w.FreshCount(c.Now())
}

// Send delivers a payload to a (label, port) endpoint over the MTP
// transport — remote method invocation on another context's objects.
func (c *Ctx) Send(dst group.Label, port transport.PortID, payload any) {
	c.stack.ep.Send(transport.Datagram{
		SrcLabel: c.label,
		DstLabel: dst,
		DstPort:  port,
		Payload:  payload,
	})
}

// SendNode delivers a payload directly to a mote known at compile time —
// the `MySend(pursuer, self:label, location)` pattern of Figure 2. The
// message is geographically routed; the receiving mote's Stack delivers it
// to OnNodeMessage handlers.
func (c *Ctx) SendNode(dst radio.NodeID, payload any) {
	pos, ok := c.stack.m.Medium().Position(dst)
	if !ok {
		return
	}
	c.stack.router.Send(routing.Message{
		Kind:     trace.KindReport,
		Dest:     pos,
		DestNode: dst,
		Payload: NodeMessage{
			From:      int(c.stack.m.ID()),
			FromLabel: c.label,
			Payload:   payload,
		},
		Corr:      radio.Corr{Origin: int32(c.stack.m.ID()), Seq: c.stack.m.NextCorrSeq()},
		CorrLabel: string(c.label),
	})
}

// SetState commits persistent state for the enclosing label; it survives
// leadership changes by piggybacking on heartbeats (the EnviroTrack
// setState() command of Section 5.2).
func (c *Ctx) SetState(state []byte) {
	if c.rt != nil {
		c.rt.be.SetState(state)
	}
}

// State returns the label's persistent state.
func (c *Ctx) State() []byte {
	if c.rt == nil {
		return nil
	}
	return c.rt.be.State()
}

// QueryDirectory asks "where are all the <ctxType>s?" (Section 5.3); the
// callback runs asynchronously with the directory entries.
func (c *Ctx) QueryDirectory(ctxType string, cb func([]directory.Entry)) {
	c.stack.dir.Query(ctxType, cb)
}
