package main

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"envirotrack"
)

// metricDef describes one reported metric.
type metricDef struct {
	name, unit string
	better     string  // "lower" or "higher"
	bound      float64 // share of the baseline by which it may worsen
	simulated  bool    // exact per seed: a speed-only change leaves it bit-identical
}

// endToEnd are the metrics a user of the simulator sees. Wall metrics are
// host-normalised (see normTime). A bound is the share by which a metric
// may worsen before a change counts as a regression. Each is about three
// times the metric's largest spread between 20 s runs with unrelated seeds
// on the calibration host, within a 25% cap; setup_s, whose spread is not
// judged, gets the largest so that work moved into set-up shows.
// BENCHMARK.json lists the same table.
var endToEnd = []metricDef{
	{name: "sim_s_per_wall_s", unit: "sim_s/s", better: "higher", bound: 0.25},
	{name: "op_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "op_ms_p90", unit: "ms", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "heap_bytes_per_mote", unit: "B", better: "lower", bound: 0.02},
	{name: "track_err", unit: "grid", better: "lower", bound: 0.10, simulated: true},
	{name: "reports_per_target_s", unit: "1/sim_s", better: "higher", bound: 0.20, simulated: true},
	{name: "frames_per_sim_s", unit: "1/sim_s", better: "lower", bound: 0.15, simulated: true},
}

// layerOwners are the scheduler owners reported per layer. The routing
// owner schedules nothing on these workloads (forwards run inside radio
// deliveries), so its per-owner metrics would read 0; routing.* counts
// come from the event bus instead.
var layerOwners = []string{"radio", "mote", "group", "app", "sense"}

// timedOwner reports whether owner o's ns_per_event is reported. The
// fields have no mote CPU model, so mote's would read a constant 0 there.
func timedOwner(o string) bool { return o != "mote" }

// perLayer lists the traced pass's metrics in report order. They have no
// bound; better says which way an improvement moves them.
var perLayer = func() []metricDef {
	var ds []metricDef
	add := func(name, unit, better string) {
		ds = append(ds, metricDef{name: name, unit: unit, better: better})
	}
	for _, o := range layerOwners {
		add(o+".events_per_sim_s", "1/sim_s", "lower")
		if timedOwner(o) {
			add(o+".ns_per_event", "ns", "lower")
		}
		add(o+".wall_pct", "%", "lower")
	}
	add("sense.ns_per_mote_scan", "ns", "lower")
	add("radio.delivered_pct", "%", "higher")
	add("radio.collision_pct", "%", "lower")
	add("mote.overload_drops_per_sim_s", "1/sim_s", "lower")
	add("group.heartbeat_frames_per_sim_s", "1/sim_s", "lower")
	add("group.trace_frames_per_sim_s", "1/sim_s", "lower")
	add("group.handovers", "count", "lower")
	add("group.takeover_silence_findings", "count", "lower")
	add("routing.forwards_per_sim_s", "1/sim_s", "lower")
	add("routing.drops_per_sim_s", "1/sim_s", "lower")
	add("simtime.events_per_sim_s", "1/sim_s", "lower")
	add("simtime.self_pct", "%", "lower")
	add("simtime.self_ns_per_event", "ns", "lower")
	add("shard.busy_pct_max", "%", "higher")
	add("shard.busy_pct_min", "%", "higher")
	add("shard.imbalance", "ratio", "lower")
	add("shard.barrier_pct", "%", "lower")
	add("shard.boundary_frames_per_sim_s", "1/sim_s", "lower")
	add("shard.cross_events_per_sim_s", "1/sim_s", "lower")
	add("setup.new_ms", "ms", "lower")
	add("setup.attach_ms", "ms", "lower")
	add("runtime.allocs_per_sim_s", "1/sim_s", "lower")
	add("runtime.alloc_bytes_per_sim_s", "B/sim_s", "lower")
	add("runtime.gc_per_sim_s", "1/sim_s", "lower")
	add("trace.overhead_pct", "%", "lower")
	add("host.ref_ms", "ms", "lower")
	add("host.raw_sim_s_per_wall_s", "sim_s/s", "higher")
	return ds
}()

// tracer observes the traced pass: a self-profile shared by every network
// of the pass, an event bus per network carrying a counter and an
// invariant checker, and counter deltas summed over the ops.
type tracer struct {
	spec    *spec
	prof    *envirotrack.SelfProfile
	counter *envirotrack.CounterSink
	checker *envirotrack.InvariantChecker // the current network's
	seen    int                           // violations already attributed to an op
	// takeoverSilence counts I2 findings, which are reported, not gated:
	// they occur on every leader workload at this revision. On the stress
	// regime the re-arming heartbeat is still queued at the mote CPU when
	// the timer fires (the checker dates a re-arm at radio reception); on
	// the fields the measured silence falls a few percent short of the
	// minimum. Every other rule stays clean on every workload.
	takeoverSilence int
	cur, sum        map[string]float64
}

func newTracer(s *spec) *tracer {
	t := &tracer{
		spec:    s,
		prof:    envirotrack.NewSelfProfile(),
		counter: envirotrack.NewCounterSink(),
		sum:     map[string]float64{},
	}
	t.prof.EnsureShards(max(1, s.shards))
	return t
}

// observe returns the options for one more network of the pass.
func (t *tracer) observe() []envirotrack.Option {
	t.checker = envirotrack.NewInvariantChecker(envirotrack.InvariantConfig{
		Backend:      t.spec.backend,
		Heartbeat:    t.spec.heartbeat,
		ReportPeriod: t.spec.freshness - 100*time.Millisecond, // Pe = Le - d
		CommRadius:   t.spec.commRadius,
		// Keep every violation so each is attributed to its op.
		MaxViolations: 1 << 30,
	})
	t.seen = 0
	return []envirotrack.Option{
		envirotrack.WithSelfProfile(t.prof),
		envirotrack.WithEventBus(envirotrack.NewEventBus(t.counter, t.checker)),
	}
}

func (t *tracer) before(sm *sim) { t.cur = t.snapshot(sm) }

// after sums the op's counter deltas and returns its gated violations.
func (t *tracer) after(sm *sim, last bool) int {
	for k, v := range t.snapshot(sm) {
		t.sum[k] += v - t.cur[k]
	}
	if last {
		t.checker.Finish(sm.net.Now())
	}
	vs := t.checker.Violations()
	gated := 0
	for _, v := range vs[t.seen:] {
		if v.Invariant == "takeover-silence" {
			t.takeoverSilence++
		} else {
			gated++
		}
	}
	t.seen = len(vs)
	return gated
}

// snapshot reads every cumulative counter the per-layer metrics use.
func (t *tracer) snapshot(sm *sim) map[string]float64 {
	m := map[string]float64{}
	for _, o := range t.prof.Snapshot() {
		m["events."+o.Name] = float64(o.Events)
		m["nanos."+o.Name] = float64(o.WallNanos)
	}
	for _, sh := range t.prof.ShardSnapshot() {
		m[fmt.Sprintf("shard.%d", sh.Shard)] = float64(sh.WallNanos)
	}
	st := sm.net.Stats()
	for _, k := range st.Kinds() {
		ks := st.Kind(k)
		m["sent."+string(k)] = float64(ks.Sent)
		m["received"] += float64(ks.Received)
		m["lost"] += float64(ks.LostRandom + ks.LostCollision)
		m["collision"] += float64(ks.LostCollision)
		m["overload"] += float64(ks.LostOverload)
	}
	m["handovers"] = float64(sm.net.Ledger().Summarize(ctxName).Successful)
	for et, n := range t.counter.Counts() {
		m["event."+et.String()] = float64(n)
	}
	m["boundary"] = float64(sm.net.BoundaryFrames())
	m["cross"] = float64(sm.net.CrossShardEvents())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["mallocs"] = float64(ms.Mallocs)
	m["alloc_bytes"] = float64(ms.TotalAlloc)
	m["gc"] = float64(ms.NumGC)
	return m
}

// runner drives one workload: the traced pass over the seed cycle, then
// untraced samples round the cycle, each op checked against the traced
// pass.
type runner struct {
	spec *spec
	seed int64
	host *hostMeter

	tr     *tracer
	traced []*sampleRec
	ref    map[opKey]string // fingerprints every untraced op must match

	samples           []*sampleRec
	next              int // untraced samples started
	attempted, failed int
	failures          []string // the first few, for the log
}

type opKey struct {
	seed int64
	step int
}

// cycleSamples is how many samples cover the seed cycle once.
func (s *spec) cycleSamples() int { return s.cycle / s.perSample }

// firstSeed is the first seed of the run's j-th sample.
func (r *runner) firstSeed(j int) int64 {
	return r.seed + int64(j%r.spec.cycleSamples()*r.spec.perSample)
}

// fail records a failed op.
func (r *runner) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, r.spec.name+": "+fmt.Sprintf(format, args...))
	}
}

// tracePass runs one traced sample per cycle position. Its fingerprints
// become the reference; an op fails on a Run error, an invariant violation
// or zero reports.
func (r *runner) tracePass() {
	r.tr = newTracer(r.spec)
	r.ref = map[opKey]string{}
	for j := 0; j < r.spec.cycleSamples(); j++ {
		rec, err := r.spec.runSample(r.firstSeed(j), r.tr)
		refMs := r.host.next()
		if err != nil {
			r.attempted++
			r.fail("traced set-up: %v", err)
			continue
		}
		rec.refMs = refMs
		r.traced = append(r.traced, rec)
		for _, op := range rec.ops {
			r.attempted++
			r.ref[opKey{op.seed, op.step}] = op.fp
			switch {
			case op.err != nil:
				r.fail("traced seed %d op %d: %v", op.seed, op.step, op.err)
			case op.violations > 0:
				r.fail("traced seed %d op %d: %d invariant violations", op.seed, op.step, op.violations)
			case op.reports == 0:
				r.fail("traced seed %d op %d: no reports reached the pursuer", op.seed, op.step)
			}
		}
	}
}

// sample runs the next untraced sample and checks every op.
func (r *runner) sample() {
	rec, err := r.spec.runSample(r.firstSeed(r.next), nil)
	refMs := r.host.next()
	r.next++
	if err != nil {
		r.attempted++
		r.fail("set-up: %v", err)
		return
	}
	rec.refMs = refMs
	for _, op := range rec.ops {
		r.attempted++
		ref, ok := r.ref[opKey{op.seed, op.step}]
		switch {
		case op.err != nil:
			r.fail("seed %d op %d: %v", op.seed, op.step, op.err)
		case !ok || op.fp != ref:
			r.fail("seed %d op %d: fingerprint differs from the traced pass", op.seed, op.step)
		case op.reports == 0:
			r.fail("seed %d op %d: no reports reached the pursuer", op.seed, op.step)
		}
	}
	r.samples = append(r.samples, rec)
}

// summary is one end-to-end metric: its value, and the quartiles and count
// of the per-sample (for simulated metrics, per-seed) values.
type summary struct {
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

func summarize(value float64, values []float64) summary {
	q1, q3 := iqr(values)
	return summary{Value: value, Q1: q1, Q3: q3, N: len(values)}
}

// rate is a sample's sim seconds per wall second, optionally normalised.
func (rec *sampleRec) rate(normalise bool) float64 {
	var simD, wall time.Duration
	for _, op := range rec.ops {
		simD += op.sim
		wall += op.wall
	}
	raw := ratio(simD.Seconds(), wall.Seconds())
	if !normalise {
		return raw
	}
	return normRate(raw, rec.refMs)
}

// simTotals sums what the pursuer saw over a set of ops.
type simTotals struct {
	reports int
	errSum  float64
	frames  uint64
	sim     time.Duration
}

func (t *simTotals) add(op opRec) {
	t.reports += op.reports
	t.errSum += op.errSum
	t.frames += op.frames
	t.sim += op.sim
}

// metrics returns track_err, reports_per_target_s and frames_per_sim_s.
func (t simTotals) metrics(targets int) (trackErr, reports, frames float64) {
	simS := t.sim.Seconds()
	return ratio(t.errSum, float64(t.reports)), ratio(float64(t.reports), float64(targets)*simS), ratio(float64(t.frames), simS)
}

// endToEnd summarises the untraced samples. Rates and heap are medians
// over samples; op percentiles and setup_s pool every op or set-up of the
// run and take their spread from the per-sample values. The simulated
// metrics pool the first pass round the seed cycle, so they are exact per
// --seed; their spread is over the cycle's seeds.
func (r *runner) endToEnd() map[string]summary {
	var rate, heap, p50s, p90s, setupMed, allOps, allSetups []float64
	for _, rec := range r.samples {
		var ops, setups []float64
		for _, op := range rec.ops {
			ops = append(ops, normTime(float64(op.wall)/float64(time.Millisecond), rec.refMs))
		}
		for _, d := range rec.setups {
			setups = append(setups, normTime(d.Seconds(), rec.refMs))
		}
		allOps = append(allOps, ops...)
		allSetups = append(allSetups, setups...)
		p50s = append(p50s, quantile(ops, 0.5))
		p90s = append(p90s, quantile(ops, 0.9))
		setupMed = append(setupMed, median(setups))
		rate = append(rate, rec.rate(true))
		heap = append(heap, rec.heapPerMote)
	}

	var pooled simTotals
	bySeed := map[int64]*simTotals{}
	for _, rec := range r.samples[:min(len(r.samples), r.spec.cycleSamples())] {
		for _, op := range rec.ops {
			pooled.add(op)
			if bySeed[op.seed] == nil {
				bySeed[op.seed] = &simTotals{}
			}
			bySeed[op.seed].add(op)
		}
	}
	var errs, reps, frs []float64
	for _, t := range bySeed {
		e, rp, f := t.metrics(r.spec.targets)
		errs, reps, frs = append(errs, e), append(reps, rp), append(frs, f)
	}
	trackErr, reports, frames := pooled.metrics(r.spec.targets)

	return map[string]summary{
		"sim_s_per_wall_s":     summarize(median(rate), rate),
		"op_ms_p50":            summarize(quantile(allOps, 0.5), p50s),
		"op_ms_p90":            summarize(quantile(allOps, 0.9), p90s),
		"setup_s":              summarize(median(allSetups), setupMed),
		"heap_bytes_per_mote":  summarize(median(heap), heap),
		"track_err":            summarize(trackErr, errs),
		"reports_per_target_s": summarize(reports, reps),
		"frames_per_sim_s":     summarize(frames, frs),
	}
}

// perLayer derives the per-layer metrics: layer counts and times from the
// traced pass, set-up phases and host readings from the untraced samples.
func (r *runner) perLayer() map[string]float64 {
	out := map[string]float64{}
	if len(r.traced) == 0 {
		return out
	}
	s, k := r.tr.sum, float64(max(1, r.spec.shards))
	var simD, runD time.Duration
	var tracedRate []float64
	for _, rec := range r.traced {
		for _, op := range rec.ops {
			simD += op.sim
			runD += op.run
		}
		tracedRate = append(tracedRate, rec.rate(true))
	}
	simS, runNs := simD.Seconds(), float64(runD)
	avail := k * runNs // shard-nanoseconds the Run calls offered

	var events, nanos float64
	for name, v := range s {
		switch {
		case strings.HasPrefix(name, "events."):
			events += v
		case strings.HasPrefix(name, "nanos."):
			nanos += v
		}
	}
	for _, o := range layerOwners {
		ev, ns := s["events."+o], s["nanos."+o]
		out[o+".events_per_sim_s"] = ratio(ev, simS)
		if timedOwner(o) {
			out[o+".ns_per_event"] = ratio(ns, ev)
		}
		out[o+".wall_pct"] = 100 * ratio(ns, avail)
	}
	motes := float64(r.spec.cols * r.spec.rows)
	out["sense.ns_per_mote_scan"] = ratio(s["nanos.sense"], motes*simS/sensePeriod.Seconds())
	receptions := s["received"] + s["lost"]
	out["radio.delivered_pct"] = 100 * ratio(s["received"], receptions)
	out["radio.collision_pct"] = 100 * ratio(s["collision"], receptions)
	out["mote.overload_drops_per_sim_s"] = ratio(s["overload"], simS)
	out["group.heartbeat_frames_per_sim_s"] = ratio(s["sent.heartbeat"], simS)
	out["group.trace_frames_per_sim_s"] = ratio(s["sent.trace"], simS)
	out["group.handovers"] = s["handovers"]
	out["group.takeover_silence_findings"] = float64(r.tr.takeoverSilence)
	out["routing.forwards_per_sim_s"] = ratio(s["event.route_forward"], simS)
	out["routing.drops_per_sim_s"] = ratio(s["event.route_dropped"], simS)
	out["simtime.events_per_sim_s"] = ratio(events, simS)
	out["simtime.self_pct"] = 100 * ratio(avail-nanos, avail)
	out["simtime.self_ns_per_event"] = ratio(avail-nanos, events)

	var busy []float64
	for i := 0; i < int(k); i++ {
		busy = append(busy, 100*ratio(s[fmt.Sprintf("shard.%d", i)], runNs))
	}
	bmax, bmin := slices.Max(busy), slices.Min(busy)
	var bsum float64
	for _, b := range busy {
		bsum += b
	}
	out["shard.busy_pct_max"] = bmax
	out["shard.busy_pct_min"] = bmin
	out["shard.imbalance"] = ratio(bmax, bsum/k)
	out["shard.barrier_pct"] = 100 - bmax
	out["shard.boundary_frames_per_sim_s"] = ratio(s["boundary"], simS)
	out["shard.cross_events_per_sim_s"] = ratio(s["cross"], simS)

	out["runtime.allocs_per_sim_s"] = ratio(s["mallocs"], simS)
	out["runtime.alloc_bytes_per_sim_s"] = ratio(s["alloc_bytes"], simS)
	out["runtime.gc_per_sim_s"] = ratio(s["gc"], simS)

	var newMs, attachMs, refMs, raw, rate []float64
	for _, rec := range r.samples {
		ms := func(d time.Duration) float64 { return normTime(float64(d)/float64(time.Millisecond), rec.refMs) }
		newMs = append(newMs, ms(rec.newD))
		attachMs = append(attachMs, ms(rec.attachD))
		refMs = append(refMs, rec.refMs)
		raw = append(raw, rec.rate(false))
		rate = append(rate, rec.rate(true))
	}
	out["setup.new_ms"] = median(newMs)
	out["setup.attach_ms"] = median(attachMs)
	out["trace.overhead_pct"] = 100 * (ratio(median(rate), median(tracedRate)) - 1)
	out["host.ref_ms"] = median(refMs)
	out["host.raw_sim_s_per_wall_s"] = median(raw)
	return out
}

// ratio is a/b, or 0 when b is 0, so an idle layer reads 0 rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
