package core

import (
	"cmp"
	"fmt"
	"time"

	"envirotrack/internal/aggregate"
	"envirotrack/internal/directory"
	"envirotrack/internal/group"
	"envirotrack/internal/mote"
	"envirotrack/internal/radio"
	"envirotrack/internal/routing"
	"envirotrack/internal/sensor"
	"envirotrack/internal/simtime"
	"envirotrack/internal/track"
	"envirotrack/internal/track/passive"
	"envirotrack/internal/transport"
)

// directoryRefresh is the period at which a leader refreshes its
// directory registration; the first registration is immediate.
const directoryRefresh = 5 * time.Second

// DelayEstimate is d in Pe = Le - d (Section 5.3), the estimated in-group
// message delay.
const DelayEstimate = 100 * time.Millisecond

// ReportPeriod derives the member data-collection period Pe from the
// tightest aggregate freshness Le: Pe = Le - d, or Le/2 when d leaves no
// room. It returns zero (the group default, one heartbeat) when le <= 0.
func ReportPeriod(le time.Duration) time.Duration {
	if le <= 0 {
		return 0
	}
	if pe := le - DelayEstimate; pe > 0 {
		return pe
	}
	return le / 2
}

// Stack is the EnviroTrack middleware instance on one mote: the router,
// the directory service, the transport endpoint and one context runtime
// per declared type. It is the mote's receiver and its router's target,
// so the order in which the layers see a frame or a routed message is
// written here alone (see Receive and Deliver). It holds the router,
// directory and endpoint by value, and its first runtime in place, so a
// stack is one object; a network keeps it in the mote's record. The
// network-wide settings (field bounds, directory switch, default
// backend) are read from the mote's env, and each type's from its shared
// Type, so a stack keeps no copy of either.
type Stack struct {
	m      *mote.Mote
	router routing.Router
	dir    directory.Service
	ep     transport.Endpoint

	// runtimes starts in rt1: most motes carry one context type.
	runtimes []*ctxRuntime
	rt1      [1]*ctxRuntime

	nodeMsgHandlers []func(NodeMessage)
}

// NewStack allocates a stack and initialises it on m (Init).
func NewStack(m *mote.Mote) *Stack {
	s := new(Stack)
	s.Init(m)
	return s
}

// Init builds the middleware on a mote in s, which the caller allocates
// and must not copy or reuse afterwards; the router, directory and
// transport reach the radio medium through the mote's env, and the
// tracking backends its coherence ledger. Context types are attached
// afterwards with AttachContext or Attach; the mote's sensing scan drives
// each one.
func (s *Stack) Init(m *mote.Mote) {
	*s = Stack{m: m}
	s.runtimes = s.rt1[:0]
	s.router.Init(m, s)
	s.dir.Init(m, &s.router)
	s.ep.Init(m, &s.router, &s.dir)
	m.SetReceiver(s)
}

// Receive is the mote's frame dispatch. The router takes routed frames.
// Any other frame is then offered to the transport endpoint, which reads
// heartbeats without consuming them, so it learns a leader even from a
// heartbeat a backend consumes. Last, the attached types' backends see
// the frame in attach order, until one consumes it.
func (s *Stack) Receive(f radio.Frame) {
	if s.router.HandleFrame(f) {
		return
	}
	s.ep.SnoopHeartbeat(f)
	for _, rt := range s.runtimes {
		if rt.be.HandleFrame(f) {
			return
		}
	}
}

// Deliver is the dispatch of the routed messages that terminate at this
// mote: the directory first, then transport, then the node-message
// handlers.
func (s *Stack) Deliver(msg routing.Message) {
	if s.dir.Handle(msg) || s.ep.HandleRouted(msg) {
		return
	}
	if nm, ok := msg.Payload.(NodeMessage); ok {
		for _, fn := range s.nodeMsgHandlers {
			fn(nm)
		}
	}
}

// Mote returns the underlying mote.
func (s *Stack) Mote() *mote.Mote { return s.m }

// Endpoint returns the transport endpoint (for tests and advanced use).
func (s *Stack) Endpoint() *transport.Endpoint { return &s.ep }

// Directory returns the directory service.
func (s *Stack) Directory() *directory.Service { return &s.dir }

// Router returns the routing layer.
func (s *Stack) Router() *routing.Router { return &s.router }

// OnNodeMessage registers a handler for messages sent directly to this
// mote by object code (Ctx.SendNode) — the pursuer/base-station pattern.
func (s *Stack) OnNodeMessage(fn func(NodeMessage)) {
	s.nodeMsgHandlers = append(s.nodeMsgHandlers, fn)
}

// Type is one validated context type as motes run it: its spec, the
// record every mote's tracking backend reads (group.Type) and the
// backend's constructor. NewType builds it once; every mote it is
// attached to points at it, and nothing modifies it afterwards.
type Type struct {
	group.Type
	spec       ContextType
	newBackend track.Constructor
}

// NewType validates spec and settles, once for every mote the type will
// be attached to in env's network, what they share: the type's HotState
// bit, whose lookup is the one check of the MaxContextTypes limit; the
// backend, spec.Backend or else env.Backend or else the leader backend;
// and the group timing with its defaults, where the data-collection
// period is Pe = min(Le) - d unless the spec sets it.
func NewType(spec ContextType, env *mote.Env) (*Type, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	newBackend, err := track.Lookup(cmp.Or(spec.Backend, env.Backend, track.BackendLeader))
	if err != nil {
		return nil, err
	}
	mask, ok := env.Hot.CtxMask(spec.Name)
	if !ok {
		return nil, fmt.Errorf("core: context type %q exceeds the limit of %d context types", spec.Name, mote.MaxContextTypes)
	}
	gcfg := spec.Group
	if gcfg.ReportPeriod <= 0 {
		gcfg.ReportPeriod = ReportPeriod(spec.minFreshness())
	}
	return &Type{
		Type:       group.Type{Name: spec.Name, Config: gcfg.WithDefaults(), Mask: mask},
		spec:       spec,
		newBackend: newBackend,
	}, nil
}

// AttachContext validates a context type and installs it on this mote
// alone, with a Type of its own.
func (s *Stack) AttachContext(spec ContextType) (*ctxRuntime, error) {
	t, err := NewType(spec, s.m.Env())
	if err != nil {
		return nil, err
	}
	return s.Attach(t)
}

// Attach installs t, built for this mote's network, on this mote. The
// runtime and the backend only read t, so one Type serves every mote of a
// network.
func (s *Stack) Attach(t *Type) (*ctxRuntime, error) {
	if _, ok := s.Runtime(t.Name); ok {
		return nil, fmt.Errorf("core: context type %q already attached", t.Name)
	}
	hot, idx := s.m.Hot()
	tr, _ := hot.Scanner(t.Mask).(*typeRows)
	if tr == nil {
		tr = &typeRows{hot: hot, mask: t.Mask}
	}
	rt := &ctxRuntime{stack: s, typ: t}
	rt.be = t.newBackend(s.m, &t.Type, rt)
	s.runtimes = append(s.runtimes, rt)
	tr.set(idx, t, rt)
	hot.Attach(idx, t.Mask, tr)
	return rt, nil
}

// typeRows is the sensing-scan dispatch of one context type over one
// HotState: the Type and runtime of every mote the type is attached to,
// indexed by HotState row, and the type's bit in the hot words. It is the
// type's mote.Scanner. The sweep calls it with the row only for motes that
// carry the type, and it loads a mote's runtime only when the scan has
// work there (see Scan). The rows are written while attaching, between
// runs, and only read while shard sweeps run.
type typeRows struct {
	hot   *mote.HotState
	mask  uint32
	types []*Type // per row; Node.AttachContext may give one mote its own Type
	rts   []*ctxRuntime
	// shared is the one Type every row carries, nil once two rows carry
	// different ones; mixed records that they did.
	shared *Type
	mixed  bool
}

// set installs a mote's Type and runtime at its row. The rows grow to
// exactly the HotState's length: attaching a type to a network sizes them
// once, and append slack would stay live for the whole run.
func (tr *typeRows) set(row int, t *Type, rt *ctxRuntime) {
	if n := tr.hot.Len(); len(tr.types) < n {
		tr.types = append(make([]*Type, 0, n), tr.types...)[:n]
		tr.rts = append(make([]*ctxRuntime, 0, n), tr.rts...)[:n]
	}
	tr.types[row], tr.rts[row] = t, rt
	if tr.shared == nil && !tr.mixed {
		tr.shared = t
	} else if tr.shared != t {
		tr.shared, tr.mixed = nil, true
	}
}

// Scan evaluates the type's sensee() conditions on one scan of the mote
// at row. The reading is the sensing sweep's scratch, valid for this call
// only, and only the user's Activation/Deactivation predicates receive a
// copy of it. The mote's sensing bit is the backend's sensing state:
// both backends' Sensing() read it. A scan that leaves the
// mote not sensing, on a mote that was not sensing and does not lead,
// does nothing, so the runtime is loaded only when the result is true or
// one of the two bits is set. Such a scan is quiet when every row carries
// the one Type, whose Activation is then the one function of the reading
// the type evaluates wherever it is attached.
func (tr *typeRows) Scan(row int, rd *sensor.Reading) (quiet bool) {
	spec := &tr.types[row].spec
	sensing := spec.Activation(*rd)
	was := tr.hot.Sensing(row, tr.mask)
	if spec.Deactivation != nil && was {
		sensing = !spec.Deactivation(*rd)
	}
	if !sensing && !was && !tr.hot.Leading(row, tr.mask) {
		return tr.shared != nil
	}
	tr.rts[row].onScan(rd, sensing, was)
	return false
}

// Runtime returns the runtime of an attached context type.
func (s *Stack) Runtime(name string) (*ctxRuntime, bool) {
	for _, rt := range s.runtimes {
		if rt.typ.Name == name {
			return rt, true
		}
	}
	return nil, false
}

// AttachStatic installs a static object (Section 3.2: "EnviroTrack also
// supports conventional static objects that are not attached to context
// labels"). The object lives permanently on this mote under the given
// label, serves its message ports, runs its timer methods, and is
// registered in the directory under its type so tracking objects can
// address it.
func (s *Stack) AttachStatic(label group.Label, objects []ObjectSpec) (*Ctx, error) {
	for _, o := range objects {
		if err := o.Validate(); err != nil {
			return nil, err
		}
	}
	ctx := &Ctx{stack: s, label: label}
	s.ep.SetLeading(label, true)
	s.serve(ctx, label.Type(), objects)
	return ctx, nil
}

// serve installs objects on this mote under ctx: each method's port
// handler and timer ticker, in declaration order, then, with the
// directory on, a registration of ctx's label under typ and the ticker
// that refreshes it. Handlers and tickers do nothing once ctx is retired
// (see Ctx.live) or, for timers, while the mote is failed. It returns the
// ports and tickers, for the caller to remove.
func (s *Stack) serve(ctx *Ctx, typ string, objects []ObjectSpec) (ports []transport.PortID, tickers []*simtime.Ticker) {
	label := ctx.label
	for _, obj := range objects {
		for _, m := range obj.Methods {
			method := m
			if method.Port != 0 {
				ports = append(ports, method.Port)
				s.ep.Handle(label, method.Port, func(d transport.Datagram) {
					if ctx.live() {
						method.Body(ctx, Trigger{Kind: TriggerMessage, Msg: &d})
					}
				})
			}
			if method.Period > 0 {
				tickers = append(tickers, simtime.NewTickerOwned(s.m.Scheduler(), method.Period, simtime.OwnerApp, func() {
					if !ctx.live() || s.m.Failed() {
						return
					}
					if method.Condition != nil && !method.Condition(ctx) {
						return
					}
					method.Body(ctx, Trigger{Kind: TriggerTimer})
				}))
			}
		}
	}
	if s.m.Env().UseDirectory {
		register := func() {
			s.dir.Register(typ, label, s.m.Pos(), s.m.ID())
		}
		register()
		tickers = append(tickers, simtime.NewTickerOwned(s.m.Scheduler(), directoryRefresh, simtime.OwnerDirectory, func() {
			if !s.m.Failed() && ctx.live() {
				register()
			}
		}))
	}
	return ports, tickers
}

// ctxRuntime is the per-mote runtime state of one context type: the
// group.Runtime its tracking backend drives. It talks to the tracking
// protocol only through the track.Backend interface; the middleware
// concerns here (aggregate windows, object methods, directory
// registration) are backend-agnostic.
type ctxRuntime struct {
	stack *Stack
	typ   *Type // shared by every mote the type is attached to; read-only
	be    track.Backend

	// Latest local samples per variable, refreshed on every scan while
	// sensing (sent to the leader in reports / used directly when leading).
	samples map[string]aggregate.Sample

	// Leader-only state: the object context, the aggregate windows, and
	// the ports and tickers (directory refresh last) serving the objects.
	ctx     *Ctx
	windows map[string]*aggregate.Window
	tickers []*simtime.Ticker
	ports   []transport.PortID
}

// Backend exposes the tracking backend driving this runtime.
func (rt *ctxRuntime) Backend() track.Backend { return rt.be }

// Label returns the context label this mote currently participates in.
func (rt *ctxRuntime) Label() group.Label { return rt.be.Label() }

// Participating reports whether this mote takes part in the tracking
// protocol for some label of the type.
func (rt *ctxRuntime) Participating() bool { return rt.be.Participating() }

// Leading reports whether this mote currently leads a label of the type.
func (rt *ctxRuntime) Leading() bool { return rt.ctx != nil }

// Ctx returns the object context while leading (nil otherwise).
func (rt *ctxRuntime) Ctx() *Ctx { return rt.ctx }

// onScan acts on one scan's sensee() result: sensing is this scan's
// evaluation and was the mote's sensing bit before it (see typeRows.Scan).
func (rt *ctxRuntime) onScan(rd *sensor.Reading, sensing, was bool) {
	// The backend is told only when its sensing state changes: a call that
	// matches the sensing bit would be a no-op.
	if was != sensing {
		rt.be.SetSensing(sensing)
	}

	if sensing {
		rt.refreshSamples(rd)
	}

	if rt.ctx == nil {
		return
	}
	// Leader: contribute its own readings to the aggregate state and
	// check condition-driven methods (the outer timer loop of Section 5.1).
	if sensing {
		for name, smp := range rt.samples {
			if w, ok := rt.windows[name]; ok {
				w.Add(smp)
			}
		}
	}
	for _, obj := range rt.typ.spec.Objects {
		for _, m := range obj.Methods {
			if m.Period == 0 && m.Port == 0 && m.Condition != nil && m.Condition(rt.ctx) {
				m.Body(rt.ctx, Trigger{Kind: TriggerCondition})
			}
		}
	}
}

func (rt *ctxRuntime) refreshSamples(rd *sensor.Reading) {
	if rt.samples == nil {
		rt.samples = make(map[string]aggregate.Sample, len(rt.typ.spec.Vars))
	}
	for _, v := range rt.typ.spec.Vars {
		smp := aggregate.Sample{
			MoteID: rd.MoteID(),
			At:     rd.At(),
			Pos:    rd.Position(),
		}
		if v.Input != PositionInput {
			val, ok := rd.Value(v.Input)
			if !ok {
				continue
			}
			smp.Scalar = val
		}
		rt.samples[v.Name] = smp
	}
}

// ReportPayload is the member's periodic report content.
func (rt *ctxRuntime) ReportPayload() any {
	if len(rt.samples) == 0 {
		return readingsPayload{}
	}
	out := make(map[string]aggregate.Sample, len(rt.samples))
	for k, v := range rt.samples {
		out[k] = v
	}
	return readingsPayload{Samples: out}
}

// OnReport folds a remote mote's samples into the active mote's
// windows. Full readings reports (the leader backend's member reports)
// carry one sample per variable; trace records (the passive backend's
// gossiped observations) carry a position only and feed the
// position-input variables.
func (rt *ctxRuntime) OnReport(_ radio.NodeID, payload any) {
	if rt.windows == nil {
		return
	}
	switch rp := payload.(type) {
	case readingsPayload:
		for name, smp := range rp.Samples {
			if w, ok := rt.windows[name]; ok {
				w.Add(smp)
			}
		}
	case *passive.Rec:
		smp := aggregate.Sample{MoteID: int(rp.Mote), At: rp.At, Pos: rp.Pos}
		for _, v := range rt.typ.spec.Vars {
			if v.Input != PositionInput {
				continue
			}
			if w, ok := rt.windows[v.Name]; ok {
				w.Add(smp)
			}
		}
	}
}

// OnActivate builds the aggregate windows and the object context, and
// serves the type's objects under label.
func (rt *ctxRuntime) OnActivate(label group.Label, state []byte) {
	rt.windows = make(map[string]*aggregate.Window, len(rt.typ.spec.Vars))
	for _, v := range rt.typ.spec.Vars {
		w, err := aggregate.NewWindow(v.Func, v.Freshness, v.CriticalMass)
		if err != nil {
			continue // validated at attach; defensive
		}
		rt.windows[v.Name] = w
	}
	rt.ctx = &Ctx{stack: rt.stack, rt: rt, label: label}
	rt.setLeading(true)
	rt.stack.ep.SetLeading(label, true)
	if state != nil {
		rt.be.SetState(state)
	}
	rt.ports, rt.tickers = rt.stack.serve(rt.ctx, rt.typ.Name, rt.typ.spec.Objects)
}

// OnDeactivate retires the object context: it stops the tickers, removes
// the port handlers and drops the windows.
func (rt *ctxRuntime) OnDeactivate(label group.Label) {
	for _, tk := range rt.tickers {
		tk.Stop()
	}
	rt.tickers = nil
	for _, p := range rt.ports {
		rt.stack.ep.Unhandle(label, p)
	}
	rt.ports = nil
	rt.stack.ep.SetLeading(label, false)
	rt.ctx = nil
	rt.setLeading(false)
	rt.windows = nil
}

// setLeading mirrors whether the runtime holds a Ctx into the mote's
// leading bit for the type, which the scan reads instead of loading the
// runtime.
func (rt *ctxRuntime) setLeading(on bool) {
	hot, idx := rt.stack.m.Hot()
	hot.SetLeading(idx, rt.typ.Mask, on)
}

// OnLabelDeleted withdraws the directory registration of a label this
// mote deleted as spurious.
func (rt *ctxRuntime) OnLabelDeleted(label group.Label) {
	if rt.stack.m.Env().UseDirectory {
		rt.stack.dir.Unregister(rt.typ.Name, label)
	}
}
