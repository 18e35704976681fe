package core

import (
	"fmt"
	"time"

	"envirotrack/internal/aggregate"
	"envirotrack/internal/directory"
	"envirotrack/internal/geom"
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

// StackConfig parameterizes the per-mote middleware stack.
type StackConfig struct {
	// Bounds is the sensor field extent (for directory hashing).
	Bounds geom.Rect
	// UseDirectory enables directory registration of led labels; the
	// stress experiments disable it to match the paper's traffic mix.
	UseDirectory bool
	// Backend is the tracking backend of context types attached without
	// one (default track.BackendLeader); a ContextType.Backend wins.
	Backend string
}

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
// stack is one object; a network keeps it in the mote's record.
type Stack struct {
	m      *mote.Mote
	router routing.Router
	dir    directory.Service
	ep     transport.Endpoint

	// The StackConfig values read after construction (Bounds is spent on
	// the directory), kept as fields so a stack stays small: there is one
	// per mote.
	useDirectory bool
	backend      string

	// runtimes starts in rt1: most motes carry one context type.
	runtimes []*ctxRuntime
	rt1      [1]*ctxRuntime

	nodeMsgHandlers []func(NodeMessage)
}

// NewStack allocates a stack and initialises it on m (Init).
func NewStack(m *mote.Mote, cfg StackConfig) *Stack {
	s := new(Stack)
	s.Init(m, cfg)
	return s
}

// Init builds the middleware on a mote in s, which the caller allocates
// and must not copy or reuse afterwards; the router, directory and
// transport reach the radio medium through the mote's env, and the
// tracking backends its coherence ledger. Context types are attached
// afterwards with AttachContext; the mote's sensing scan drives each one.
func (s *Stack) Init(m *mote.Mote, cfg StackConfig) {
	if cfg.Backend == "" {
		cfg.Backend = track.BackendLeader
	}
	*s = Stack{m: m, useDirectory: cfg.UseDirectory, backend: cfg.Backend}
	s.runtimes = s.rt1[:0]
	s.router.Init(m, s)
	s.dir.Init(m, &s.router, directory.Config{Bounds: cfg.Bounds})
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

// AttachContext validates a context type and installs it on this mote.
// The group data-collection period is derived as Pe = min(Le) - d unless
// the spec overrides it.
func (s *Stack) AttachContext(spec ContextType) (*ctxRuntime, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return s.AttachShared(&spec)
}

// AttachShared installs an already validated context type on this mote.
// The runtime only reads spec, so one spec may serve every mote of a
// network; the caller must not modify it afterwards. A spec without a
// Backend runs StackConfig.Backend: this is the one place a type's
// backend is picked.
func (s *Stack) AttachShared(spec *ContextType) (*ctxRuntime, error) {
	for _, rt := range s.runtimes {
		if rt.spec.Name == spec.Name {
			return nil, fmt.Errorf("core: context type %q already attached", spec.Name)
		}
	}

	hot, idx := s.m.Hot()
	mask, ok := hot.CtxMask(spec.Name)
	if !ok {
		return nil, fmt.Errorf("core: context type %q exceeds the limit of %d context types", spec.Name, mote.MaxContextTypes)
	}

	gcfg := spec.Group
	if gcfg.ReportPeriod <= 0 {
		gcfg.ReportPeriod = ReportPeriod(spec.minFreshness())
	}

	backend := spec.Backend
	if backend == "" {
		backend = s.backend
	}
	tr, _ := hot.Scanner(mask).(*typeRows)
	if tr == nil {
		tr = &typeRows{hot: hot, mask: mask}
	}
	rt := &ctxRuntime{stack: s, spec: spec, rows: tr}
	be, err := track.New(backend, s.m, spec.Name, gcfg, rt)
	if err != nil {
		return nil, err
	}
	rt.be = be
	s.runtimes = append(s.runtimes, rt)
	tr.set(idx, spec, rt)
	hot.Attach(idx, mask, tr)
	return rt, nil
}

// typeRows is the sensing-scan dispatch of one context type over one
// HotState: the spec and runtime of every mote the type is attached to,
// indexed by HotState row, and the type's bit in the hot words. It is the
// type's mote.Scanner. The sweep calls it with the row only for motes that
// carry the type, and it loads a mote's runtime only when the scan has
// work there (see Scan). The rows are written while attaching, between
// runs, and only read while shard sweeps run.
type typeRows struct {
	hot   *mote.HotState
	mask  uint32
	specs []*ContextType // per row; Node.AttachContext may give one mote its own spec
	rts   []*ctxRuntime
	// shared is the one spec every row carries, nil once two rows carry
	// different ones; mixed records that they did.
	shared *ContextType
	mixed  bool
}

// set installs a mote's spec and runtime at its row. The rows grow to
// exactly the HotState's length: attaching a type to a network sizes them
// once, and append slack would stay live for the whole run.
func (tr *typeRows) set(row int, spec *ContextType, rt *ctxRuntime) {
	if n := tr.hot.Len(); len(tr.specs) < n {
		tr.specs = append(make([]*ContextType, 0, n), tr.specs...)[:n]
		tr.rts = append(make([]*ctxRuntime, 0, n), tr.rts...)[:n]
	}
	tr.specs[row], tr.rts[row] = spec, rt
	if tr.shared == nil && !tr.mixed {
		tr.shared = spec
	} else if tr.shared != spec {
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
// the one spec, whose Activation is then the one function of the reading
// the type evaluates wherever it is attached.
func (tr *typeRows) Scan(row int, rd *sensor.Reading) (quiet bool) {
	spec := tr.specs[row]
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
		if rt.spec.Name == name {
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
	if s.useDirectory {
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
	spec  *ContextType // shared by every mote the type is attached to; read-only
	be    track.Backend
	// rows is the type's scan dispatch; its mask locates the mote's bits
	// for this type in the HotState.
	rows *typeRows

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
	for _, obj := range rt.spec.Objects {
		for _, m := range obj.Methods {
			if m.Period == 0 && m.Port == 0 && m.Condition != nil && m.Condition(rt.ctx) {
				m.Body(rt.ctx, Trigger{Kind: TriggerCondition})
			}
		}
	}
}

func (rt *ctxRuntime) refreshSamples(rd *sensor.Reading) {
	if rt.samples == nil {
		rt.samples = make(map[string]aggregate.Sample, len(rt.spec.Vars))
	}
	for _, v := range rt.spec.Vars {
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
		for _, v := range rt.spec.Vars {
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
	rt.windows = make(map[string]*aggregate.Window, len(rt.spec.Vars))
	for _, v := range rt.spec.Vars {
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
	rt.ports, rt.tickers = rt.stack.serve(rt.ctx, rt.spec.Name, rt.spec.Objects)
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
	hot.SetLeading(idx, rt.rows.mask, on)
}

// OnLabelDeleted withdraws the directory registration of a label this
// mote deleted as spurious.
func (rt *ctxRuntime) OnLabelDeleted(label group.Label) {
	if rt.stack.useDirectory {
		rt.stack.dir.Unregister(rt.spec.Name, label)
	}
}
