package main

import (
	"fmt"
	"io"
	"math"
)

// verdict judges metric d moving from a (baseline) to b:
//
//   - worse: b is worse than a by more than the bound (an out-of-bound
//     regression);
//   - unresolved: the noise of either side exceeds the bound, so the runs
//     cannot resolve it;
//   - better: b is better by more than the bound;
//   - within: otherwise.
//
// A side's noise is its per-sample quartile range, relative to its value,
// over the square root of its sample count: a rough estimate of the spread
// between the medians of repeated runs, which host phases longer than a
// run widen. A simulated metric is exact per seed, so it has no noise, and
// any difference at all is flagged as changed.
func verdict(d metricDef, a, b summary) (delta float64, v string, changed bool) {
	delta = ratio(b.Value-a.Value, math.Abs(a.Value))
	gain := delta
	if d.better == "lower" {
		gain = -delta
	}
	noise := func(s summary) float64 {
		return ratio(s.Q3-s.Q1, math.Abs(s.Value)*math.Sqrt(float64(s.N)))
	}
	spread := math.Max(noise(a), noise(b))
	if d.simulated {
		spread = 0
	}
	changed = d.simulated && a.Value != b.Value
	switch {
	case -gain > d.bound:
		v = "worse"
	case spread > d.bound:
		v = "unresolved"
	case gain > d.bound:
		v = "better"
	default:
		v = "within"
	}
	return delta, v, changed
}

// compareFiles prints, per workload and end-to-end metric, both values
// with their quartiles, the delta and the verdict. It returns 1 if any
// metric is worse than its bound or a workload of a is missing from b.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResult(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readResult(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	code := 0
	fmt.Fprintf(stdout, "a = %s (seed %d)\nb = %s (seed %d)\n", pathA, a.Seed, pathB, b.Seed)
	for _, wa := range a.Workloads {
		wb, ok := findWorkload(b, wa.Name)
		if !ok {
			fmt.Fprintf(stdout, "%s: missing from b\n", wa.Name)
			code = 1
			continue
		}
		fmt.Fprintf(stdout, "%s: failed a %d/%d, b %d/%d\n", wa.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			delta, v, changed := verdict(d, sa, sb)
			note := ""
			if changed {
				note = " changed"
			}
			fmt.Fprintf(stdout, "  %-22s a %-11.6g [%.6g..%.6g]  b %-11.6g [%.6g..%.6g]  %+7.2f%%  bound %4.1f%%  %s%s\n",
				d.name, sa.Value, sa.Q1, sa.Q3, sb.Value, sb.Q1, sb.Q3, 100*delta, 100*d.bound, v, note)
			if v == "worse" {
				code = 1
			}
		}
	}
	return code
}
