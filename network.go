package envirotrack

import (
	"fmt"
	"math"
	"strings"
	"time"

	"envirotrack/internal/chaos"
	"envirotrack/internal/core"
	"envirotrack/internal/geom"
	"envirotrack/internal/mote"
	"envirotrack/internal/obs"
	"envirotrack/internal/phenomena"
	"envirotrack/internal/radio"
	"envirotrack/internal/simtime"
	"envirotrack/internal/trace"
	"envirotrack/internal/track"
)

// ModelFunc assigns a sensing model to each deployed mote; returning nil
// deploys a pure relay node.
type ModelFunc func(id NodeID, pos Point) *SensorModel

// networkConfig collects the options of New.
type networkConfig struct {
	cols, rows  int
	commRadius  float64
	bitRate     float64
	lossProb    float64
	propDelay   time.Duration
	noCollision bool
	noCSMA      bool
	seed        int64
	moteCfg     mote.Config
	bounds      Rect
	boundsSet   bool
	modelFn     ModelFunc
	directory   bool
	bus         *obs.Bus
	selfProfile *simtime.Profile
	shards      int
	backend     string
}

// Option configures New.
type Option interface {
	apply(*networkConfig)
}

type optionFunc func(*networkConfig)

func (f optionFunc) apply(c *networkConfig) { f(c) }

// WithGrid deploys a cols x rows grid of motes at unit spacing, with ids
// assigned row-major starting at 0.
func WithGrid(cols, rows int) Option {
	return optionFunc(func(c *networkConfig) { c.cols, c.rows = cols, rows })
}

// WithCommRadius sets the communication radius in grid units (default 2).
func WithCommRadius(r float64) Option {
	return optionFunc(func(c *networkConfig) { c.commRadius = r })
}

// WithBitRate sets the channel capacity in bits/second (default 50 kb/s,
// the MICA mote radio).
func WithBitRate(bps float64) Option {
	return optionFunc(func(c *networkConfig) { c.bitRate = bps })
}

// WithLossProb sets the iid per-receiver frame loss probability.
func WithLossProb(p float64) Option {
	return optionFunc(func(c *networkConfig) { c.lossProb = p })
}

// WithPropDelay sets the fixed per-frame propagation delay.
func WithPropDelay(d time.Duration) Option {
	return optionFunc(func(c *networkConfig) { c.propDelay = d })
}

// WithoutCollisions disables the receiver-side collision model.
func WithoutCollisions() Option {
	return optionFunc(func(c *networkConfig) { c.noCollision = true })
}

// WithoutCSMA disables carrier sensing: senders transmit immediately even
// when the channel around them is busy (an ablation of the MAC layer).
func WithoutCSMA() Option {
	return optionFunc(func(c *networkConfig) { c.noCSMA = true })
}

// WithSeed makes the run deterministic under the given seed (default 1).
func WithSeed(seed int64) Option {
	return optionFunc(func(c *networkConfig) { c.seed = seed })
}

// WithMoteCPU sets the per-message CPU service time and queue capacity,
// modeling the constrained mote processor.
func WithMoteCPU(serviceTime time.Duration, queueCap int) Option {
	return optionFunc(func(c *networkConfig) {
		c.moteCfg.ServiceTime = serviceTime
		c.moteCfg.QueueCap = queueCap
	})
}

// WithSensePeriod sets the sensor scan period (default 100 ms).
func WithSensePeriod(d time.Duration) Option {
	return optionFunc(func(c *networkConfig) { c.moteCfg.SensePeriod = d })
}

// WithSensing assigns the same sensing model constructor to every grid
// mote.
func WithSensing(model *SensorModel) Option {
	return optionFunc(func(c *networkConfig) {
		c.modelFn = func(NodeID, Point) *SensorModel { return model }
	})
}

// WithSensingFunc assigns sensing models per mote.
func WithSensingFunc(fn ModelFunc) Option {
	return optionFunc(func(c *networkConfig) { c.modelFn = fn })
}

// WithBounds overrides the field bounds used for directory hashing
// (default: the grid bounds).
func WithBounds(r Rect) Option {
	return optionFunc(func(c *networkConfig) { c.bounds, c.boundsSet = r, true })
}

// WithDirectory enables the object naming and directory services.
func WithDirectory() Option {
	return optionFunc(func(c *networkConfig) { c.directory = true })
}

// WithBackend selects the default tracking backend for context types
// attached without an explicit one (a ContextType.Backend set by the
// language's backend clause or by hand still wins). Known backends:
// BackendLeader (the default) and BackendPassive.
func WithBackend(name string) Option {
	return optionFunc(func(c *networkConfig) { c.backend = name })
}

// WithEventBus attaches an observability event bus: every protocol layer
// (group, mote CPU, radio, transport, directory) emits structured events
// through it. A nil or sink-less bus costs one nil check per emission
// site; sinks only observe, so attaching one cannot perturb a seeded run.
func WithEventBus(bus *EventBus) Option {
	return optionFunc(func(c *networkConfig) { c.bus = bus })
}

// WithParallelShards splits the run's event engine into k spatially
// sharded schedulers — the field bounds are tiled into a near-square grid
// of k regions, and every mote's protocol timers and outbound radio
// traffic run on the shard owning its region — and executes them on
// separate goroutines with the free-running conservative-lookahead (LBTS)
// engine: each shard fires its events inside lookahead windows of one
// minimum packet time (airtime + PropDelay), a barrier drains each
// shard's cross-shard radio outbox, merges the buffered observability
// lanes, and samples series, and the window advances. Every random draw
// is keyed by who draws it, so the shards make the serial run's draws:
// a run is the serial run until its first frame that reaches another
// shard. From there CSMA occupancy is shard-local, so results are
// statistically equivalent to serial (the internal/eval equivalence
// battery pins the distributions), and rerunning the same configuration
// reproduces the run byte-for-byte. Boundary traffic is counted
// (Network.BoundaryFrames), and a cross-shard delivery that lands less
// than one packet time after its send, or before the barrier that drains
// it, makes Run fail with an error at that barrier — a violated bound
// means the run is invalid. k < 2 keeps the serial engine: a group of
// one shard that runs each interval as a single window. New rejects k
// above MaxParallelShards.
func WithParallelShards(k int) Option {
	return optionFunc(func(c *networkConfig) { c.shards = k })
}

// MaxParallelShards bounds WithParallelShards. Each shard costs a
// scheduler, an observability lane and, while a run
// executes, a goroutine; the bound, well above the 2 to 8 shards the
// engine is measured at, keeps a mistyped count from allocating those by
// the million. New rejects a larger count before it builds anything.
const MaxParallelShards = 64

// WithSelfProfile attaches a scheduler self-profile: every simulation
// event is timed and attributed to its owning subsystem (radio, group,
// routing, ...), and callbacks run under pprof labels so CPU profiles
// break down the same way. Profiling adds wall-clock measurement around
// each event but never feeds wall time into the simulation, so traces
// and results are unchanged.
func WithSelfProfile(p *SelfProfile) Option {
	return optionFunc(func(c *networkConfig) { c.selfProfile = p })
}

// Network is a simulated EnviroTrack deployment: a radio medium, a field
// of targets, and a set of motes running the middleware stack. It is
// driven by a virtual clock; use Run/RunSession to advance it. A Network
// is not safe for concurrent use except through a Session.
type Network struct {
	cfg networkConfig
	// group executes the run on k >= 1 scheduler shards (one for the
	// serial engine); shardOf maps a position to its owning shard, and
	// envs[i] is the environment of shard i's motes: its scheduler, run
	// seed, stats accumulator and bus, and the network's medium, field,
	// mote configuration, HotState and ledger.
	group   *simtime.ShardGroup
	shardOf func(geom.Point) int32
	envs    []*mote.Env
	medium  *radio.Medium
	field   *phenomena.Field
	ledger  *trace.Ledger
	bus     *obs.Bus

	nodes   map[NodeID]*Node
	started bool

	// Parallel-only state (k > 1): the buffered observability lanes merged
	// at each window barrier (nil when unobserved) and the barrier-driven
	// series samplers. minCrossBits is the smallest cross-traffic frame
	// size, which can lower the lookahead window below the default frame's
	// packet time.
	lanes        *obs.LaneSet
	parSamplers  []*parSampler
	minCrossBits int

	// hot is the struct-of-arrays home of the per-mote hot fields
	// (position, failure, CPU queue, membership/sensing words), shared by
	// every env; each deployed mote has a row in it, so the sensing sweep
	// and the series probes walk dense slices instead of the nodes map.
	hot *mote.HotState

	// ctxTypes are the attached context type names in attach order, for
	// the built-in series probes.
	ctxTypes []string
}

// Node is one deployed mote with its middleware stack. It is the mote's
// record: the mote's CPU, its radio node and its stack (router, directory
// and endpoint included) live in it by value, so deploying a mote makes
// one allocation for all of them. Each record is its own heap object,
// sized to fit one allocation size class. The layers point into it, so a
// Node must not be copied.
type Node struct {
	net   *Network
	mote  mote.Mote
	radio radio.Node
	stack core.Stack
}

// New builds a network. With WithGrid, motes 0..cols*rows-1 are deployed
// immediately; additional motes (base stations, pursuers) can be added
// with AddMote.
func New(opts ...Option) (*Network, error) {
	cfg := networkConfig{
		commRadius: 2,
		seed:       1,
	}
	for _, o := range opts {
		o.apply(&cfg)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if !cfg.boundsSet {
		cfg.bounds = geom.Grid{Cols: cfg.cols, Rows: cfg.rows}.Bounds()
	}

	k := max(cfg.shards, 1)
	n := &Network{
		cfg:     cfg,
		group:   simtime.NewShardGroup(k),
		shardOf: shardMapper(cfg.bounds, k),
		envs:    make([]*mote.Env, k),
		field:   phenomena.NewField(),
		ledger:  &trace.Ledger{},
		bus:     cfg.bus,
		nodes:   make(map[NodeID]*Node),
		hot:     mote.NewHotState(),
	}
	n.group.SetProfile(cfg.selfProfile)
	if k > 1 {
		// Shard goroutines emit into buffered lanes that each window
		// barrier merges into the bus in timestamp order.
		n.lanes = obs.NewLaneSet(cfg.bus, k)
	}
	rts := make([]radio.ShardRuntime, k)
	for i := range rts {
		rts[i] = radio.ShardRuntime{Sched: n.group.Shard(i), Seed: cfg.seed, Stats: &trace.Stats{}, Bus: cfg.bus}
		if k > 1 {
			rts[i].Bus = n.lanes.Bus(i)
		}
	}
	n.medium = radio.New(radio.Params{
		CommRadius:        cfg.commRadius,
		BitRate:           cfg.bitRate,
		PropDelay:         cfg.propDelay,
		LossProb:          cfg.lossProb,
		DisableCollisions: cfg.noCollision,
		DisableCSMA:       cfg.noCSMA,
	}, n.shardOf, rts...)
	for i, rt := range rts {
		env := mote.NewEnv(rt, n.medium, n.field, cfg.moteCfg, n.hot)
		env.Ledger = n.ledger
		env.Bounds, env.UseDirectory, env.Backend = cfg.bounds, cfg.directory, cfg.backend
		n.envs[i] = env
	}

	if cfg.cols > 0 && cfg.rows > 0 {
		for y := 0; y < cfg.rows; y++ {
			for x := 0; x < cfg.cols; x++ {
				id := NodeID(y*cfg.cols + x)
				pos := Pt(float64(x), float64(y))
				var model *SensorModel
				if cfg.modelFn != nil {
					model = cfg.modelFn(id, pos)
				}
				if _, err := n.AddMote(id, pos, model); err != nil {
					return nil, err
				}
			}
		}
	}
	return n, nil
}

// validate rejects option values no run can use, before New builds
// anything. A bit rate of 0 keeps the default.
func (c *networkConfig) validate() error {
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	switch {
	case !finite(c.commRadius) || c.commRadius <= 0:
		return fmt.Errorf("envirotrack: communication radius must be positive and finite, got %v", c.commRadius)
	case !finite(c.bitRate) || c.bitRate < 0:
		return fmt.Errorf("envirotrack: bit rate must be finite and non-negative, got %v", c.bitRate)
	case c.propDelay < 0:
		return fmt.Errorf("envirotrack: propagation delay must be non-negative, got %v", c.propDelay)
	case !(c.lossProb >= 0 && c.lossProb <= 1):
		return fmt.Errorf("envirotrack: loss probability must be in [0,1], got %v", c.lossProb)
	case c.shards > MaxParallelShards:
		return fmt.Errorf("envirotrack: %d parallel shards exceed the maximum of %d", c.shards, MaxParallelShards)
	case c.backend != "" && !track.Known(c.backend):
		return fmt.Errorf("envirotrack: unknown tracking backend %q (known: %s)",
			c.backend, strings.Join(track.Names(), ", "))
	}
	return nil
}

// shardMapper returns a function mapping positions to one of k shard
// regions tiling bounds in a near-square gx x gy grid (gx*gy = k, with
// the longer field dimension getting the larger factor). Positions
// outside the bounds — pursuers, off-field base stations — clamp to the
// nearest region, so every mote has an owner.
func shardMapper(bounds geom.Rect, k int) func(geom.Point) int32 {
	gy := int(math.Sqrt(float64(k)))
	for k%gy != 0 {
		gy--
	}
	gx := k / gy
	if bounds.Height() > bounds.Width() {
		gx, gy = gy, gx
	}
	w, h := bounds.Width(), bounds.Height()
	return func(p geom.Point) int32 {
		p = bounds.Clamp(p)
		col, row := 0, 0
		if w > 0 {
			col = int(float64(gx) * (p.X - bounds.Min.X) / w)
			if col >= gx {
				col = gx - 1
			}
		}
		if h > 0 {
			row = int(float64(gy) * (p.Y - bounds.Min.Y) / h)
			if row >= gy {
				row = gy - 1
			}
		}
		return int32(row*gx + col)
	}
}

// AddMote deploys an additional mote (e.g. a base station). It must be
// called before Run. The mote is built on the env of the shard owning its
// region: it runs on that shard's scheduler, accounts into its stats, and
// emits through its bus, so no mutable state is shared across shard
// goroutines.
func (n *Network) AddMote(id NodeID, pos Point, model *SensorModel) (*Node, error) {
	if n.started {
		return nil, fmt.Errorf("envirotrack: cannot add motes after the network started")
	}
	node := &Node{net: n}
	if err := node.mote.Init(&node.radio, id, pos, model, n.envs[n.shardOf(pos)]); err != nil {
		return nil, fmt.Errorf("envirotrack: %w", err)
	}
	node.stack.Init(&node.mote)
	n.nodes[id] = node
	return node, nil
}

// AddTarget places a physical entity in the environment.
func (n *Network) AddTarget(t *Target) {
	n.field.Add(t)
}

// Node returns a deployed mote by id.
func (n *Network) Node(id NodeID) (*Node, bool) {
	node, ok := n.nodes[id]
	return node, ok
}

// Nodes returns all deployed node ids in ascending order.
func (n *Network) Nodes() []NodeID {
	return n.medium.NodeIDs()
}

// AttachContextAll attaches a context type to every sensing mote. A
// spec without an explicit Backend gets the network's default (see
// WithBackend).
func (n *Network) AttachContextAll(spec ContextType) error {
	// Every mote's runtime and backend read this one Type.
	t, err := core.NewType(spec, n.envs[0])
	if err != nil {
		return err
	}
	for _, id := range n.medium.NodeIDs() {
		if _, err := n.nodes[id].stack.Attach(t); err != nil {
			return err
		}
	}
	n.noteCtxType(spec.Name)
	return nil
}

// noteCtxType records an attached context type name (once) for the series
// probes.
func (n *Network) noteCtxType(name string) {
	for _, ct := range n.ctxTypes {
		if ct == name {
			return
		}
	}
	n.ctxTypes = append(n.ctxTypes, name)
}

// EventBus returns the bus attached via WithEventBus (nil when absent).
func (n *Network) EventBus() *EventBus {
	return n.bus
}

// StartSeries samples simulation health every `every` of sim time into a
// columnar Series and returns it. The built-in columns are live_labels
// (labels led and not deleted since, over all attached context types),
// group_size (motes currently participating in any label), cpu_queue
// (frames waiting in mote CPU queues), and link_util (cumulative channel
// utilization in [0,1]). Extra probes append their own columns. Sampling
// only reads protocol state, so it does not perturb a seeded run.
func (n *Network) StartSeries(every time.Duration, extra ...SeriesProbe) *Series {
	probes := append([]obs.Probe{
		{Name: "live_labels", Sample: func() float64 {
			total := 0
			for _, ct := range n.ctxTypes {
				total += len(n.ledger.LiveLabels(ct))
			}
			return float64(total)
		}},
		{Name: "group_size", Sample: func() float64 {
			// Membership bits live in the hot-state word slice, so the
			// probe is one scan over []uint32.
			var mask uint32
			for _, ct := range n.ctxTypes {
				m, _ := n.hot.CtxMask(ct)
				mask |= m
			}
			return float64(n.hot.MemberCountMask(mask))
		}},
		{Name: "cpu_queue", Sample: func() float64 {
			return float64(n.hot.QueuedTotal())
		}},
		{Name: "link_util", Sample: func() float64 {
			return n.Stats().LinkUtilization(n.Now(), n.medium.Params().BitRate)
		}},
	}, extra...)
	sampler := obs.NewSampler(probes...)
	sampler.Sample(n.Now())
	if n.Shards() > 1 {
		// No scheduler ticker with several shards: the probes read
		// run-global state (ledger, hot slices, merged stats), so they
		// sample at the window barriers, where every shard worker is
		// parked. Each due instant in a window gets one row stamped with its
		// due time, so the cadence matches serial; the values are the
		// protocol state at the enclosing barrier — within one lookahead
		// window of the due time.
		n.parSamplers = append(n.parSamplers, &parSampler{
			sampler: sampler,
			every:   every,
			next:    n.Now() + every,
		})
		return sampler.Series()
	}
	simtime.NewTickerOwned(n.envs[0].Sched, every, simtime.OwnerSeries, func() {
		sampler.Sample(n.Now())
	})
	return sampler.Series()
}

// parSampler is one barrier-driven series sampler of a parallel run.
type parSampler struct {
	sampler *obs.Sampler
	every   time.Duration
	next    time.Duration
}

// InjectFaults installs a chaos fault schedule on the network: node
// crashes/restores become scheduler events driving Mote.Fail/Restore,
// and loss, ramp, partition, and duplication faults are wired into the
// radio medium. Call it before Run; the schedule replays deterministically
// on the virtual clock, so the same seed plus the same schedule always
// reproduces the same run. An empty schedule is a no-op.
func (n *Network) InjectFaults(sc chaos.Schedule) error {
	if sc.Empty() {
		return nil
	}
	for _, c := range sc.Crashes {
		if _, ok := n.nodes[NodeID(c.Node)]; !ok {
			return fmt.Errorf("envirotrack: chaos schedule crashes unknown node %d", c.Node)
		}
	}
	// Each victim's crash/restore events run on its own shard's scheduler.
	victimSched := func(node int) *simtime.Scheduler { return n.nodes[NodeID(node)].mote.Scheduler() }
	inj, err := chaos.NewInjector(victimSched, sc, chaos.Hooks{
		Fail: func(node int) {
			if nd, ok := n.nodes[NodeID(node)]; ok {
				nd.Fail()
			}
		},
		Restore: func(node int) {
			if nd, ok := n.nodes[NodeID(node)]; ok {
				nd.Restore()
			}
		},
		Position: n.medium.Position,
	})
	if err != nil {
		return fmt.Errorf("envirotrack: %w", err)
	}
	n.medium.SetFaultInjector(inj)
	return nil
}

// start launches the sensing scans once. All sensing motes share the one
// SensePeriod from the network config, so instead of one ticker per mote
// the network arms one mote.Sweep per shard, so every scan runs on the
// goroutine that owns the mote's state. Each sweep scans its motes in
// ascending id order and resolves the field once per tick into its own
// snapshot.
func (n *Network) start() {
	if n.started {
		return
	}
	n.started = true
	sweeps := make([]*mote.Sweep, len(n.envs))
	for i, env := range n.envs {
		sweeps[i] = mote.NewSweep(env)
	}
	// Deterministic sweep order: map iteration order would leak into the
	// scheduler's same-instant FIFO ordering.
	for _, id := range n.medium.NodeIDs() {
		sweeps[n.medium.NodeShard(id)].Add(&n.nodes[id].mote)
	}
	for _, sw := range sweeps {
		sw.Start()
	}
	if n.Shards() > 1 {
		// Topology is frozen now: resolve every neighbor list so spatial
		// lookups are pure map reads while shard goroutines execute. The
		// serial engine resolves them lazily, holding only the lists its
		// traffic needs.
		n.medium.PrebuildNeighbors()
	}
}

// AddCrossTraffic schedules periodic background frames from src to dst
// that do not participate in any protocol ("background noise", used by the
// Section 6.2 bottleneck experiment). Bits <= 0 uses the default frame
// size.
func (n *Network) AddCrossTraffic(src, dst NodeID, period time.Duration, bits int) error {
	if period <= 0 {
		return fmt.Errorf("envirotrack: cross-traffic period must be positive")
	}
	node, ok := n.nodes[src]
	if !ok {
		return fmt.Errorf("envirotrack: unknown cross-traffic source %d", src)
	}
	if bits > 0 && bits < radio.DefaultFrameBits && (n.minCrossBits == 0 || bits < n.minCrossBits) {
		// Sub-default frames shrink the minimum packet time, and with it
		// the conservative lookahead window of a parallel run.
		n.minCrossBits = bits
	}
	// The ticker lives on the source mote's shard, so the send runs on the
	// goroutine owning the source.
	simtime.NewTickerOwned(node.mote.Scheduler(), period, simtime.OwnerApp, func() {
		if node.mote.Failed() {
			return
		}
		n.medium.Send(radio.Frame{
			Kind: trace.KindCross,
			Src:  src,
			Dst:  dst,
			Bits: bits,
		})
	})
	return nil
}

// Run advances the simulation by d of virtual time (synchronously, on the
// calling goroutine). It can be called repeatedly. It returns an error if
// d is negative, if any cross-shard delivery of a parallel run
// (WithParallelShards) violated the conservative lookahead bound — a
// violated bound means the run is invalid — or if the run's packet time
// leaves no positive lookahead.
func (n *Network) Run(d time.Duration) error {
	n.start()
	return n.run(n.Now() + d)
}

// lookaheadDelta is the parallel window width: the conservative lower
// bound on any cross-shard interaction latency — the airtime of the
// smallest frame a run can put on the air, plus propagation delay.
func (n *Network) lookaheadDelta() time.Duration {
	bits := radio.DefaultFrameBits
	if n.minCrossBits > 0 && n.minCrossBits < bits {
		bits = n.minCrossBits
	}
	return n.medium.Airtime(bits) + n.medium.Params().PropDelay
}

// run drives the shard group to the deadline; a barrier error (a
// conservative-lookahead violation) ends it. A deadline before Now is an
// error on every engine: the clock never moves backwards.
func (n *Network) run(deadline time.Duration) error {
	if now := n.Now(); deadline < now {
		return fmt.Errorf("envirotrack: run deadline %v is before the current time %v", deadline, now)
	}
	// Cap the executor's idle skip at the next series-sample due time so
	// samplers keep their exact cadence: a sample taken at a barrier in
	// an event-free gap reads the same state it would have read under
	// per-delta windows. Samplers advance only inside barrier, on the
	// coordinator, so the closure reads race-free.
	if len(n.parSamplers) > 0 {
		n.group.SetWindowCap(func(time.Duration) (time.Duration, bool) {
			var c time.Duration
			ok := false
			for _, ps := range n.parSamplers {
				if !ok || ps.next < c {
					c, ok = ps.next, true
				}
			}
			return c, ok
		})
	}
	err := n.group.Run(deadline, n.lookaheadDelta(), n.barrier)
	if n.Shards() > 1 {
		// Shard goroutines append to the ledger concurrently: the event
		// multiset is deterministic per configuration, the interleaving is
		// not, so restore a canonical order. A lone shard appends in firing
		// order, which is already deterministic.
		n.ledger.SortDeterministic()
	}
	return err
}

// barrier runs at every window edge with all shard workers parked: it
// drains the cross-shard radio outboxes onto the receiver shards (failing
// the run on a lookahead violation), merges the buffered observability
// lanes into the real bus in timestamp order, and takes the series samples
// that came due inside the window.
func (n *Network) barrier(w time.Duration) error {
	err := n.medium.FlushBoundary(w)
	n.lanes.Flush()
	if err != nil {
		return fmt.Errorf("envirotrack: parallel run invalid: %w", err)
	}
	for _, ps := range n.parSamplers {
		for ps.next <= w {
			ps.sampler.Sample(ps.next)
			ps.next += ps.every
		}
	}
	return nil
}

// Now returns the current virtual time. With several shards this is the
// group clock (the committed window edge); event callbacks needing their
// shard's local time use Node.Now.
func (n *Network) Now() time.Duration { return n.group.Now() }

// Stats returns the run's radio accounting. A serial run returns its live
// accumulator; with several shards the per-shard accumulators are merged
// into a fresh snapshot, so call it after (or between) Run calls, not
// from event callbacks.
func (n *Network) Stats() *Stats {
	if n.Shards() == 1 {
		return n.envs[0].Stats
	}
	merged := &trace.Stats{}
	for _, env := range n.envs {
		merged.AddFrom(env.Stats)
	}
	return merged
}

// Ledger returns the context-label coherence ledger.
func (n *Network) Ledger() *Ledger {
	return n.ledger
}

// TargetPosition returns a target's position at the current virtual time.
func (n *Network) TargetPosition(t *Target) Point {
	return t.PositionAt(n.Now())
}

// Bounds returns the field bounds.
func (n *Network) Bounds() Rect {
	return n.cfg.bounds
}

// Shards returns the number of scheduler shards executing the run (1 for
// the serial engine).
func (n *Network) Shards() int { return len(n.envs) }

// ShardOf returns the shard owning a position (always 0 in serial runs).
func (n *Network) ShardOf(p Point) int { return int(n.shardOf(p)) }

// CrossShardEvents always returns 0. Shards of the parallel engine never
// schedule events on each other — cross-shard traffic travels only as
// radio frames through the window barrier, counted by BoundaryFrames —
// and the method stays for callers that report it.
func (n *Network) CrossShardEvents() uint64 { return 0 }

// BoundaryFrames counts radio target receptions whose sender and
// receiver live in different shards (0 in serial runs).
func (n *Network) BoundaryFrames() uint64 {
	return n.medium.BoundaryFrames()
}

// --- Node methods ---

// ID returns the node id.
func (nd *Node) ID() NodeID { return nd.mote.ID() }

// Pos returns the node position.
func (nd *Node) Pos() Point { return nd.mote.Pos() }

// Now returns the node's local virtual time: its shard's clock in a
// free-running parallel run, the global clock otherwise. Event callbacks
// (OnMessage, sensing hooks) must timestamp with this, not Network.Now —
// the group clock only shows the last committed window edge while shards
// free-run ahead of it.
func (nd *Node) Now() time.Duration { return nd.mote.Scheduler().Now() }

// AttachContext installs a context type on this mote. A spec without an
// explicit Backend gets the network's default (see WithBackend).
func (nd *Node) AttachContext(spec ContextType) error {
	_, err := nd.stack.AttachContext(spec)
	if err == nil {
		nd.net.noteCtxType(spec.Name)
	}
	return err
}

// AttachStatic installs a static object under the given label on this
// mote (base stations, sinks, command posts).
func (nd *Node) AttachStatic(label Label, objects []Object) (*Ctx, error) {
	return nd.stack.AttachStatic(label, objects)
}

// OnMessage registers a handler for NodeMessages addressed to this mote
// by object code (Ctx.SendNode).
func (nd *Node) OnMessage(fn func(NodeMessage)) {
	nd.stack.OnNodeMessage(fn)
}

// Send transmits a transport datagram from this node (for base stations
// invoking methods on tracking objects).
func (nd *Node) Send(d Datagram) {
	nd.stack.Endpoint().Send(d)
}

// QueryDirectory asks the directory for all labels of a context type.
func (nd *Node) QueryDirectory(ctxType string, cb func([]DirectoryEntry)) {
	nd.stack.Directory().Query(ctxType, cb)
}

// Leading reports whether this node currently leads a label of the given
// context type.
func (nd *Node) Leading(ctxType string) bool {
	rt, ok := nd.stack.Runtime(ctxType)
	return ok && rt.Leading()
}

// CurrentLabel returns the label this node participates in for a context
// type (empty when none).
func (nd *Node) CurrentLabel(ctxType string) Label {
	rt, ok := nd.stack.Runtime(ctxType)
	if !ok {
		return ""
	}
	return rt.Label()
}

// Fail kills the mote (fault injection); Restore revives it.
func (nd *Node) Fail() { nd.mote.Fail() }

// Restore revives a failed mote.
func (nd *Node) Restore() { nd.mote.Restore() }

// Failed reports whether the mote is failed.
func (nd *Node) Failed() bool { return nd.mote.Failed() }
