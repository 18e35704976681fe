package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"envirotrack"
)

// spec fixes one workload's simulated work. Everything the simulator sees
// is derived from the spec and the seed.
type spec struct {
	name        string
	cols, rows  int
	commRadius  float64
	senseRadius float64
	targets     int
	speed       float64 // target speed, hops per second
	heartbeat   time.Duration
	reportEvery time.Duration
	freshness   time.Duration
	critMass    int
	loss        float64
	cpu         time.Duration // mote CPU service time; 0 is an infinitely fast CPU
	queue       int
	backend     string
	shards      int  // WithParallelShards count; 0 runs the serial engine
	stress      bool // an op is one whole run, set-up included; else one Run(fieldStep)
	fieldOps    int  // field: ops per sample, all on the sample's one network
	// A run covers cycle seeds, perSample of them per sample, so its
	// metrics average over that many inputs however long it runs.
	perSample, cycle int
}

const (
	ctxName = "tracker"
	// pursuerID is the base station the tracking object reports to. It
	// sits just past the top-right corner of the grid.
	pursuerID envirotrack.NodeID = 100_000
	// fieldStep is one field op; fieldSettle runs once after set-up so
	// groups have formed before the first op.
	fieldStep   = time.Second
	fieldSettle = time.Second
	// sensePeriod is the simulator's default scan period (not overridden
	// here), used to count mote scans for sense.ns_per_mote_scan.
	sensePeriod = 100 * time.Millisecond
)

// workloads returns the benchmark's workloads in round-robin order. quick
// shrinks them to toy size for the smoke test. Each pairs with another
// that uses the same layers differently (README.md has the full rationale):
//
//   - field10k is the scale tier: 10k motes and four vehicles on the serial
//     engine. The sense sweep dominates; there is no mote CPU model.
//   - field10k-par2 is the same field on the free-running 2-shard engine,
//     the only workload on windows, barrier, outboxes and shard balance.
//   - stress-leader is the Figure 5 stress regime as a sweep user runs it:
//     whole runs with set-up, dense radio and a constrained mote CPU,
//     tracked by heartbeat floods.
//   - stress-passive is the same runs tracked by passive traces, so gossip
//     and the estimator replace heartbeats on the same radio and CPUs.
func workloads(quick bool) []*spec {
	field := spec{
		cols: 100, rows: 100, commRadius: 2.5, senseRadius: 1.6,
		targets: 4, speed: 2, heartbeat: 250 * time.Millisecond,
		reportEvery: 250 * time.Millisecond, freshness: time.Second, critMass: 2,
		backend: envirotrack.BackendLeader, fieldOps: 15, perSample: 1, cycle: 8,
	}
	stress := spec{
		cols: 24, rows: 5, commRadius: 6, senseRadius: 2,
		targets: 1, speed: 1, heartbeat: 250 * time.Millisecond,
		reportEvery: time.Second, freshness: 2 * time.Second, critMass: 1,
		loss: 0.05, cpu: 8 * time.Millisecond, queue: 6,
		backend: envirotrack.BackendLeader, stress: true, perSample: 20, cycle: 80,
	}
	if quick {
		field.cols, field.rows, field.targets, field.fieldOps, field.cycle = 20, 20, 2, 3, 2
		stress.perSample, stress.cycle = 2, 2
	}
	f, fp, sl, sp := field, field, stress, stress
	f.name = "field10k"
	fp.name, fp.shards = "field10k-par2", 2
	sl.name = "stress-leader"
	sp.name, sp.backend = "stress-passive", envirotrack.BackendPassive
	return []*spec{&f, &fp, &sl, &sp}
}

// context is the Figure 2 tracker with the workload's QoS: the leader
// reports the group's centroid to the pursuer every reportEvery. The
// periods are short because every handover restarts the object's timer: at
// the workloads' speeds a 1 s timer on the field (5 s in Figure 5) rarely
// fires, and an op that delivers no report is a failed op.
func (s *spec) context() envirotrack.ContextType {
	return envirotrack.ContextType{
		Name: ctxName,
		Activation: func(rd envirotrack.Reading) bool {
			v, _ := rd.Value("magnetic_detect")
			return v > 0.5
		},
		Vars: []envirotrack.AggVar{{
			Name:         "location",
			Func:         envirotrack.Centroid,
			Input:        envirotrack.PositionInput,
			Freshness:    s.freshness,
			CriticalMass: s.critMass,
		}},
		Objects: []envirotrack.Object{{
			Name: "reporter",
			Methods: []envirotrack.Method{{
				Name:   "report_function",
				Period: s.reportEvery,
				Body: func(ctx *envirotrack.Ctx, _ envirotrack.Trigger) {
					if loc, ok := ctx.ReadPosition("location"); ok {
						ctx.SendNode(pursuerID, loc)
					}
				},
			}},
		}},
		Group: envirotrack.GroupConfig{HeartbeatPeriod: s.heartbeat, HopsPast: 1},
	}
}

// sim is one built network and what its pursuer has received.
type sim struct {
	net     *envirotrack.Network
	targets []*envirotrack.Target
	runFor  time.Duration // stress: to the end of the path plus settle
	reports int
	errSum  float64 // summed distance from each report to the nearest target
	// Wall time of the set-up phases: New; AttachContextAll through
	// AddMote; the field's settle Run.
	newD, attachD, settleD time.Duration
}

// build sets a network up: New through AddMote, then for fields the
// settle run. extra adds the traced pass's observers.
func (s *spec) build(seed int64, extra ...envirotrack.Option) (*sim, error) {
	opts := []envirotrack.Option{
		envirotrack.WithGrid(s.cols, s.rows),
		envirotrack.WithCommRadius(s.commRadius),
		envirotrack.WithSensing(envirotrack.VehicleSensing("vehicle")),
		envirotrack.WithSeed(seed),
		envirotrack.WithLossProb(s.loss),
		envirotrack.WithBackend(s.backend),
	}
	if s.cpu > 0 {
		opts = append(opts, envirotrack.WithMoteCPU(s.cpu, s.queue))
	}
	if s.shards > 1 {
		opts = append(opts, envirotrack.WithParallelShards(s.shards))
	}
	opts = append(opts, extra...)

	t0 := time.Now()
	net, err := envirotrack.New(opts...)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	sm := &sim{net: net, newD: t1.Sub(t0)}
	if err := net.AttachContextAll(s.context()); err != nil {
		return nil, err
	}
	if err := s.addTargets(sm); err != nil {
		return nil, err
	}
	pursuer, err := net.AddMote(pursuerID, envirotrack.Pt(float64(s.cols-1), float64(s.rows)), nil)
	if err != nil {
		return nil, err
	}
	pursuer.OnMessage(func(m envirotrack.NodeMessage) {
		if loc, ok := m.Payload.(envirotrack.Point); ok {
			sm.reports++
			sm.errSum += sm.nearest(loc, pursuer.Now())
		}
	})
	t2 := time.Now()
	sm.attachD = t2.Sub(t1)
	if !s.stress {
		if err := net.Run(fieldSettle); err != nil {
			return nil, err
		}
		sm.settleD = time.Since(t2)
	}
	return sm, nil
}

// addTargets places the vehicles. Field targets enter at the left edge on
// slanted lines, spread evenly over the height; the stress target enters
// from outside the field so the group forms at one corner mote, crosses
// the centre line, and parks one hop short of the far edge.
func (s *spec) addTargets(sm *sim) error {
	if !s.stress {
		for j := 0; j < s.targets; j++ {
			slant := 0.2
			if j%2 == 1 {
				slant = -slant
			}
			sm.addTarget(fmt.Sprintf("t%d", j), envirotrack.Line{
				Start: envirotrack.Pt(0, float64(s.rows-1)*float64(j+1)/float64(s.targets+1)),
				Dir:   envirotrack.Vec(1, slant),
				Speed: s.speed,
			}, s.senseRadius)
		}
		return nil
	}
	midY := float64(s.rows-1) / 2
	traj, err := envirotrack.NewWaypoints([]envirotrack.Point{
		envirotrack.Pt(-s.senseRadius, midY),
		envirotrack.Pt(float64(s.cols-2), midY),
	}, s.speed)
	if err != nil {
		return err
	}
	sm.addTarget("tank", traj, s.senseRadius)
	sm.runFor = traj.EndTime() + 5*s.heartbeat + 2*time.Second
	return nil
}

func (sm *sim) addTarget(name string, traj envirotrack.Trajectory, radius float64) {
	t := &envirotrack.Target{Name: name, Kind: "vehicle", Traj: traj, SignatureRadius: radius}
	sm.net.AddTarget(t)
	sm.targets = append(sm.targets, t)
}

// nearest returns the distance from a reported location to the closest
// true target position at time at.
func (sm *sim) nearest(loc envirotrack.Point, at time.Duration) float64 {
	d := math.Inf(1)
	for _, t := range sm.targets {
		d = math.Min(d, loc.Dist(t.PositionAt(at)))
	}
	return d
}

// fingerprint is the simulated outcome of a network so far: frames sent,
// received and lost per kind, labels created, reports delivered, and the
// virtual clock. Two runs of the same seed must agree on it exactly.
func (sm *sim) fingerprint() string {
	var b strings.Builder
	st := sm.net.Stats()
	for _, k := range st.Kinds() {
		ks := st.Kind(k)
		fmt.Fprintf(&b, "%s:%d/%d/%d/%d/%d/%d ", k, ks.Sent, ks.Received, ks.Undelivered,
			ks.LostRandom, ks.LostCollision, ks.LostOverload)
	}
	fmt.Fprintf(&b, "labels=%d reports=%d clock=%v",
		sm.net.Ledger().Summarize(ctxName).Created, sm.reports, sm.net.Now())
	return b.String()
}

// framesSent totals radio transmissions over every message kind.
func (sm *sim) framesSent() uint64 {
	st := sm.net.Stats()
	var n uint64
	for _, k := range st.Kinds() {
		n += st.Kind(k).Sent
	}
	return n
}

// opRec is one op as measured.
type opRec struct {
	seed    int64
	step    int           // the op's index on its network (stress: 0)
	wall    time.Duration // the op (stress: set-up plus Run)
	run     time.Duration // the Run call alone
	sim     time.Duration // virtual time advanced
	fp      string
	reports int     // reports delivered during the op
	errSum  float64 // their summed distance to the nearest target
	frames  uint64  // frames sent during the op
	err     error
	// violations counts the traced pass's gated invariant violations.
	violations int
}

// sampleRec is one sample, with the host reference read around it.
type sampleRec struct {
	refMs       float64
	setups      []time.Duration // field: one; stress: one per op
	newD        time.Duration   // the set-up phases of the sample's first network
	attachD     time.Duration
	heapPerMote float64
	ops         []opRec
}

// runSample drives one sample covering seeds first..first+perSample-1: a
// field sample builds one network and runs fieldOps ops on it; a stress
// sample runs one whole run per seed. A nil tr runs it untraced.
func (s *spec) runSample(first int64, tr *tracer) (*sampleRec, error) {
	build := func(seed int64) (*sim, error) {
		if tr != nil {
			return s.build(seed, tr.observe()...)
		}
		return s.build(seed)
	}
	rec := &sampleRec{}

	// Live heap of one set-up network over a clean baseline. The field's
	// network goes on to run the ops; the stress one is only measured.
	runtime.GC()
	base := liveHeap()
	sm, err := build(first)
	if err != nil {
		return nil, err
	}
	rec.newD, rec.attachD = sm.newD, sm.attachD
	runtime.GC()
	rec.heapPerMote = float64(int64(liveHeap())-int64(base)) / float64(s.cols*s.rows+1)

	if !s.stress {
		rec.setups = append(rec.setups, sm.newD+sm.attachD+sm.settleD)
		for i := 0; i < s.fieldOps; i++ {
			op := runOp(sm, fieldStep, tr, i == s.fieldOps-1)
			op.seed, op.step = first, i
			rec.ops = append(rec.ops, op)
			if op.err != nil {
				break
			}
		}
		return rec, nil
	}
	for i := int64(0); i < int64(s.perSample); i++ {
		runtime.GC()
		t0 := time.Now()
		if sm, err = build(first + i); err != nil {
			return nil, err
		}
		setup := time.Since(t0)
		rec.setups = append(rec.setups, setup)
		op := runOp(sm, sm.runFor, tr, true)
		op.seed, op.wall = first+i, setup+op.wall
		rec.ops = append(rec.ops, op)
	}
	return rec, nil
}

// runOp advances sm by d, observed by tr when tracing (last marks the
// network's final op).
func runOp(sm *sim, d time.Duration, tr *tracer, last bool) opRec {
	if tr != nil {
		tr.before(sm)
	}
	reports, errSum, frames := sm.reports, sm.errSum, sm.framesSent()
	t := time.Now()
	err := sm.net.Run(d)
	wall := time.Since(t)
	op := opRec{
		wall: wall, run: wall, sim: d, fp: sm.fingerprint(), err: err,
		reports: sm.reports - reports, errSum: sm.errSum - errSum, frames: sm.framesSent() - frames,
	}
	if tr != nil {
		op.violations = tr.after(sm, last)
	}
	return op
}

func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
