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
	"envirotrack/internal/trace"
	"envirotrack/internal/track"
	_ "envirotrack/internal/track/passive" // register the passive-traces backend
	"envirotrack/internal/transport"
)

// StackConfig parameterizes the per-mote middleware stack.
type StackConfig struct {
	// Bounds is the sensor field extent (for directory hashing).
	Bounds geom.Rect
	// UseDirectory enables directory registration of led labels; the
	// stress experiments disable it to match the paper's traffic mix.
	UseDirectory bool
	// DirectoryRefresh is the registration refresh period (default 5s).
	DirectoryRefresh time.Duration
}

func (c StackConfig) withDefaults() StackConfig {
	if c.DirectoryRefresh <= 0 {
		c.DirectoryRefresh = 5 * time.Second
	}
	return c
}

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

// Stack is the EnviroTrack middleware instance on one mote. It wires the
// transport endpoint (which must snoop frames before the group managers),
// the directory service, and one context runtime per declared type.
type Stack struct {
	m      *mote.Mote
	medium *radio.Medium
	cfg    StackConfig
	router *routing.Router
	dir    *directory.Service
	ep     *transport.Endpoint
	ledger *trace.Ledger

	runtimes []*ctxRuntime

	nodeMsgHandlers []func(NodeMessage)
}

// NewStack builds the middleware on a mote. Context types are attached
// afterwards with AttachContext; the mote's sensing scan drives each one.
// The mote must already be bound to its final HotState (mote.BindHot).
func NewStack(m *mote.Mote, medium *radio.Medium, cfg StackConfig, ledger *trace.Ledger) *Stack {
	cfg = cfg.withDefaults()
	router := routing.NewRouter(m, medium)
	dir := directory.NewService(m, router, directory.Config{Bounds: cfg.Bounds})
	ep := transport.NewEndpoint(m, router, dir)
	s := &Stack{
		m:      m,
		medium: medium,
		cfg:    cfg,
		router: router,
		dir:    dir,
		ep:     ep,
		ledger: ledger,
	}
	router.AddHandler(s.handleNodeMessage)
	return s
}

// Mote returns the underlying mote.
func (s *Stack) Mote() *mote.Mote { return s.m }

// Endpoint returns the transport endpoint (for tests and advanced use).
func (s *Stack) Endpoint() *transport.Endpoint { return s.ep }

// Directory returns the directory service.
func (s *Stack) Directory() *directory.Service { return s.dir }

// Router returns the routing layer.
func (s *Stack) Router() *routing.Router { return s.router }

// OnNodeMessage registers a handler for messages sent directly to this
// mote by object code (Ctx.SendNode) — the pursuer/base-station pattern.
func (s *Stack) OnNodeMessage(fn func(NodeMessage)) {
	s.nodeMsgHandlers = append(s.nodeMsgHandlers, fn)
}

func (s *Stack) handleNodeMessage(msg routing.Message) bool {
	nm, ok := msg.Payload.(NodeMessage)
	if !ok {
		return false
	}
	for _, fn := range s.nodeMsgHandlers {
		fn(nm)
	}
	return true
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
// network; the caller must not modify it afterwards.
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

	rt := &ctxRuntime{stack: s, spec: spec}
	be, err := track.New(spec.Backend, track.Deps{
		Mote:    s.m,
		CtxType: spec.Name,
		Group:   gcfg,
		Callbacks: track.Callbacks{
			ReportPayload:  rt.reportPayload,
			OnReport:       rt.onMemberReport,
			OnActivate:     rt.onActivate,
			OnDeactivate:   rt.onDeactivate,
			OnLabelDeleted: rt.onLabelDeleted,
		},
		Ledger: s.ledger,
	})
	if err != nil {
		return nil, err
	}
	rt.be = be
	rt.hot, rt.hotIdx, rt.hotMask = hot, int32(idx), mask
	s.runtimes = append(s.runtimes, rt)
	s.m.AddSenseListener(rt.onScan)
	return rt, nil
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
	ctx := &Ctx{stack: s, label: label, static: true}
	s.ep.SetLeading(label, true)
	for _, obj := range objects {
		for _, m := range obj.Methods {
			method := m
			if method.Port != 0 {
				s.ep.Handle(label, method.Port, func(d transport.Datagram) {
					method.Body(ctx, Trigger{Kind: TriggerMessage, Msg: &d})
				})
			}
			if method.Period > 0 {
				simtime.NewTickerOwned(s.m.Scheduler(), method.Period, simtime.OwnerApp, func() {
					if s.m.Failed() {
						return
					}
					if method.Condition != nil && !method.Condition(ctx) {
						return
					}
					method.Body(ctx, Trigger{Kind: TriggerTimer})
				})
			}
		}
	}
	if s.cfg.UseDirectory {
		register := func() {
			s.dir.Register(transportLabelType(label), label, s.m.Pos(), s.m.ID())
		}
		register()
		simtime.NewTickerOwned(s.m.Scheduler(), s.cfg.DirectoryRefresh, simtime.OwnerDirectory, func() {
			if !s.m.Failed() {
				register()
			}
		})
	}
	return ctx, nil
}

// transportLabelType mirrors transport's label-type derivation for static
// labels of the canonical "type/..." form.
func transportLabelType(l group.Label) string {
	s := string(l)
	for i := 0; i < len(s); i++ {
		if s[i] == '/' {
			return s[:i]
		}
	}
	return s
}

// ctxRuntime is the per-mote runtime state of one context type. It talks
// to the tracking protocol only through the track.Backend interface; the
// middleware concerns here (aggregate windows, object methods, directory
// registration) are backend-agnostic.
type ctxRuntime struct {
	stack *Stack
	spec  *ContextType // shared by every mote the type is attached to; read-only
	be    track.Backend

	// hot, hotIdx and hotMask locate the mote's sensing bit for this type,
	// which the backend keeps equal to its Sensing() (see track.Backend).
	hot     *mote.HotState
	hotIdx  int32
	hotMask uint32

	// Latest local samples per variable, refreshed on every scan while
	// sensing (sent to the leader in reports / used directly when leading).
	samples map[string]aggregate.Sample

	// Leader-only state.
	ctx       *Ctx
	windows   map[string]*aggregate.Window
	tickers   []*simtime.Ticker
	dirTicker *simtime.Ticker
	ports     []transport.PortID
}

// Backend exposes the tracking backend driving this runtime.
func (rt *ctxRuntime) Backend() track.Backend { return rt.be }

// Manager exposes the group manager when the leader backend is in use
// (for tests and experiments); nil for other backends.
func (rt *ctxRuntime) Manager() *group.Manager {
	if lb, ok := rt.be.(interface{ Manager() *group.Manager }); ok {
		return lb.Manager()
	}
	return nil
}

// Label returns the context label this mote currently participates in.
func (rt *ctxRuntime) Label() group.Label { return rt.be.Label() }

// Participating reports whether this mote takes part in the tracking
// protocol for some label of the type.
func (rt *ctxRuntime) Participating() bool { return rt.be.Participating() }

// Leading reports whether this mote currently leads a label of the type.
func (rt *ctxRuntime) Leading() bool { return rt.ctx != nil }

// Ctx returns the object context while leading (nil otherwise).
func (rt *ctxRuntime) Ctx() *Ctx { return rt.ctx }

// onScan evaluates the type's sensee() conditions on one scan; it is the
// mote's sense listener for this type. The reading is the sensing sweep's
// scratch, valid for this call only, and only the user's
// Activation/Deactivation predicates receive a copy of it.
func (rt *ctxRuntime) onScan(rd *sensor.Reading) {
	sensing := rt.spec.Activation(*rd)
	if rt.spec.Deactivation != nil && rt.be.Sensing() {
		sensing = !rt.spec.Deactivation(*rd)
	}
	// The backend is told only when its sensing state changes: a call that
	// matches the mirrored bit would be a no-op.
	if rt.hot.Sensing(int(rt.hotIdx), rt.hotMask) != sensing {
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
			MoteID: rd.MoteID,
			At:     rd.At,
			Pos:    rd.Position,
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

// reportPayload is the member's periodic report content.
func (rt *ctxRuntime) reportPayload() any {
	if len(rt.samples) == 0 {
		return readingsPayload{}
	}
	out := make(map[string]aggregate.Sample, len(rt.samples))
	for k, v := range rt.samples {
		out[k] = v
	}
	return readingsPayload{Samples: out}
}

// onMemberReport folds a remote mote's samples into the active mote's
// windows. Full readings reports (the leader backend's member reports)
// carry one sample per variable; trace samples (the passive backend's
// gossiped observations) carry a position only and feed the
// position-input variables.
func (rt *ctxRuntime) onMemberReport(_ radio.NodeID, payload any) {
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
	case track.TraceSample:
		smp := aggregate.Sample{MoteID: int(rp.MoteID), At: rp.At, Pos: rp.Pos}
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

func (rt *ctxRuntime) onActivate(label group.Label, state []byte) {
	rt.windows = make(map[string]*aggregate.Window, len(rt.spec.Vars))
	for _, v := range rt.spec.Vars {
		w, err := aggregate.NewWindow(v.Func, v.Freshness, v.CriticalMass)
		if err != nil {
			continue // validated at attach; defensive
		}
		rt.windows[v.Name] = w
	}
	rt.ctx = &Ctx{stack: rt.stack, rt: rt, label: label}
	rt.stack.ep.SetLeading(label, true)
	if state != nil {
		rt.be.SetState(state)
	}

	// Install message-triggered methods and timer methods.
	for _, obj := range rt.spec.Objects {
		for _, m := range obj.Methods {
			method := m
			if method.Port != 0 {
				rt.ports = append(rt.ports, method.Port)
				rt.stack.ep.Handle(label, method.Port, func(d transport.Datagram) {
					if rt.ctx == nil {
						return
					}
					method.Body(rt.ctx, Trigger{Kind: TriggerMessage, Msg: &d})
				})
			}
			if method.Period > 0 {
				tk := simtime.NewTickerOwned(rt.stack.m.Scheduler(), method.Period, simtime.OwnerApp, func() {
					if rt.ctx == nil || rt.stack.m.Failed() {
						return
					}
					if method.Condition != nil && !method.Condition(rt.ctx) {
						return
					}
					method.Body(rt.ctx, Trigger{Kind: TriggerTimer})
				})
				rt.tickers = append(rt.tickers, tk)
			}
		}
	}

	// Register the label with the directory and refresh periodically.
	if rt.stack.cfg.UseDirectory {
		register := func() {
			rt.stack.dir.Register(rt.spec.Name, label, rt.stack.m.Pos(), rt.stack.m.ID())
		}
		register()
		rt.dirTicker = simtime.NewTickerOwned(rt.stack.m.Scheduler(), rt.stack.cfg.DirectoryRefresh, simtime.OwnerDirectory, func() {
			if !rt.stack.m.Failed() && rt.ctx != nil {
				register()
			}
		})
	}
}

func (rt *ctxRuntime) onDeactivate(label group.Label) {
	for _, tk := range rt.tickers {
		tk.Stop()
	}
	rt.tickers = nil
	if rt.dirTicker != nil {
		rt.dirTicker.Stop()
		rt.dirTicker = nil
	}
	for _, p := range rt.ports {
		rt.stack.ep.Unhandle(label, p)
	}
	rt.ports = nil
	rt.stack.ep.SetLeading(label, false)
	rt.ctx = nil
	rt.windows = nil
}

// onLabelDeleted withdraws the directory registration of a label this
// mote deleted as spurious.
func (rt *ctxRuntime) onLabelDeleted(label group.Label) {
	if rt.stack.cfg.UseDirectory {
		rt.stack.dir.Unregister(rt.spec.Name, label)
	}
}
