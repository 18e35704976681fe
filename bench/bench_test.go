package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuantileMatchesPythonExclusive(t *testing.T) {
	// Expected values from Python's statistics.quantiles (method
	// "exclusive"), the function the quartile spreads are judged with.
	one2ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	var one2hundred []float64
	for i := 1; i <= 100; i++ {
		one2hundred = append(one2hundred, float64(i))
	}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{one2ten, 0.25, 2.75},
		{one2ten, 0.5, 5.5},
		{one2ten, 0.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 0.25, 1.5},
		{[]float64{5, 1, 4, 2, 3}, 0.75, 4.5},
		{[]float64{1, 2}, 0.25, 0.75}, // clamped pair: extrapolates, as Python does
		{[]float64{1, 2}, 0.75, 2.25},
		{one2hundred, 0.9, 90.9},
		{[]float64{7}, 0.9, 7},
		{nil, 0.5, 0},
	} {
		if got := quantile(c.xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if q1, q3 := iqr(one2ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("iqr = %v, %v, want 2.75, 8.25", q1, q3)
	}
	xs := []float64{3, 1, 2}
	quantile(xs, 0.5)
	if xs[0] != 3 {
		t.Error("quantile sorted its input in place")
	}
}

func TestNormalisation(t *testing.T) {
	// A sample whose kernel took twice the nominal time ran on a host twice
	// as slow: its times halve and its rates double.
	slow := 2 * nominalRefMs
	if got := normTime(10, slow); got != 5 {
		t.Errorf("normTime = %v, want 5", got)
	}
	if got := normRate(10, slow); got != 20 {
		t.Errorf("normRate = %v, want 20", got)
	}
	if normTime(7, nominalRefMs) != 7 || normRate(7, nominalRefMs) != 7 {
		t.Error("normalisation at the nominal kernel time must be the identity")
	}
	// A normalised rate is the reciprocal of the normalised time.
	if got := normRate(1/4.0, 3) * normTime(4, 3); math.Abs(got-1) > 1e-12 {
		t.Errorf("normRate(1/x)·normTime(x) = %v, want 1", got)
	}
}

func TestFingerprintMismatchFails(t *testing.T) {
	r := &runner{spec: workloads(true)[2], seed: 1, host: newHostMeter()}
	r.tracePass()
	if r.failed != 0 {
		t.Fatalf("traced pass failed: %v", r.failures)
	}
	r.sample()
	if r.failed != 0 {
		t.Fatalf("clean sample failed: %v", r.failures)
	}
	k := opKey{seed: 1}
	r.ref[k] = "corrupted " + r.ref[k]
	r.next = 0
	before := r.attempted
	r.sample()
	if r.failed != 1 || r.attempted != before+r.spec.perSample {
		t.Fatalf("failed %d of %d new ops, want 1 of %d", r.failed, r.attempted-before, r.spec.perSample)
	}
	if !strings.Contains(r.failures[0], "fingerprint") {
		t.Errorf("failure %q does not name the fingerprint", r.failures[0])
	}
}

func TestQuickSmoke(t *testing.T) {
	for _, traced := range []string{"0", "1"} {
		var out, errs bytes.Buffer
		path := filepath.Join(t.TempDir(), "result.json")
		if code := run([]string{"-quick", "-trace", traced, "-out", path}, &out, &errs); code != 0 {
			t.Fatalf("exit %d: %s", code, errs.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line lastLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line: %v", err)
		}
		if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
			t.Fatalf("correct %v, failed %d of %d: %s", line.Correct, line.Failed, line.Attempted, errs.String())
		}
		defs := endToEnd
		if traced == "1" {
			defs = perLayer
		}
		for _, s := range workloads(true) {
			for _, d := range defs {
				m, ok := line.Metrics[s.name+"/"+d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s/%s: missing or wrong unit (%+v)", s.name, d.name, m)
				}
				if traced == "0" && m.Value <= 0 {
					t.Errorf("%s/%s = %v, want > 0", s.name, d.name, m.Value)
				}
			}
		}
		if _, err := readResult(path); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompare(t *testing.T) {
	lower, higher, sim := endToEnd[1], endToEnd[0], endToEnd[5]
	// at is a one-sample summary whose quartiles span spread around v.
	at := func(v, spread float64) summary {
		return summary{Value: v, Q1: v * (1 - spread/2), Q3: v * (1 + spread/2), N: 1}
	}
	for _, c := range []struct {
		d       metricDef
		a, b    summary
		verdict string
	}{
		{lower, at(100, 0.02), at(100+100*(lower.bound+0.01), 0.02), "worse"},
		{higher, at(100, 0.02), at(100-100*(higher.bound+0.01), 0.02), "worse"},
		{lower, at(100, 0.02), at(100-100*(lower.bound+0.01), 0.02), "better"},
		{lower, at(100, 0.02), at(100-100*(lower.bound-0.01), 0.02), "within"},
		{lower, at(100, 0.02), at(101, 0.02), "within"},
		{lower, at(100, 2*lower.bound), at(100, 0.02), "unresolved"},
	} {
		if _, v, _ := verdict(c.d, c.a, c.b); v != c.verdict {
			t.Errorf("%s %v -> %v: verdict %s, want %s", c.d.name, c.a.Value, c.b.Value, v, c.verdict)
		}
	}
	if _, v, changed := verdict(sim, at(1, 0), at(1.0000001, 0)); !changed || v != "within" {
		t.Errorf("a simulated metric that moved slightly: %s, changed %v; want within, changed", v, changed)
	}
	// Per-seed quartiles of a simulated metric are not noise.
	if _, v, changed := verdict(sim, at(1, 1), at(1, 1)); changed || v != "within" {
		t.Errorf("identical simulated metric: %s, changed %v; want within, unchanged", v, changed)
	}
	// Sample noise shrinks with the square root of the sample count.
	wide := at(100, 2*lower.bound)
	wide.N = 100
	if _, v, _ := verdict(lower, wide, wide); v != "within" {
		t.Errorf("100 samples of wide spread: %s, want within", v)
	}

	dir := t.TempDir()
	write := func(name string, value float64) string {
		res := result{Workloads: []workloadResult{{Name: "w", EndToEnd: map[string]summary{}}}}
		for _, d := range endToEnd {
			res.Workloads[0].EndToEnd[d.name] = at(value, 0.01)
		}
		path := filepath.Join(dir, name)
		if err := writeResult(path, res); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slower := write("a.json", 10), write("same.json", 10), write("slower.json", 20)
	var out bytes.Buffer
	if code := compareFiles(a, same, &out, &out); code != 0 {
		t.Errorf("identical results: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(a, slower, &out, &out); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("regressed results: exit %d\n%s", code, out.String())
	}
}

// TestBenchmarkJSONMatchesCode keeps the repository's BENCHMARK.json in step
// with the workloads and metric tables defined here.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	ws := workloads(false)
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, doc.Workloads[i].Name, w.name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(doc.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		e := doc.EndToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound != d.bound {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v in code", i, e, d)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if e := doc.PerLayer[i]; e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v in code", i, e, d)
		}
	}
}
