// Command bench is the repository benchmark: it drives the simulator
// through the public envirotrack API on four fixed workloads, checks every
// op for correctness, and reports host-normalised end-to-end metrics plus
// per-layer metrics from a separate traced pass. See README.md.
//
//	bash bench/run.sh [-workload all|NAME] [-seed S] [-seconds T] [-trace 0|1] [-out result.json]
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is what -out writes and -compare reads.
type result struct {
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name      string             `json:"name"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   int                `json:"samples"`
	Ops       int                `json:"ops"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
}

// lastLine is the one-line summary the benchmark prints last.
type lastLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run, or all (round-robin)")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same simulated work")
	seconds := fs.Float64("seconds", 8, "timed seconds per workload")
	traceFlag := fs.Int("trace", 0, "metrics on the last line: 0 end-to-end, 1 per-layer")
	out := fs.String("out", "", "write the full result JSON to this file")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	quick := fs.Bool("quick", false, "toy-size workloads, one pass round the seed cycle (smoke test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	var specs []*spec
	for _, s := range workloads(*quick) {
		if *workload == "all" || *workload == s.name {
			specs = append(specs, s)
		}
	}
	if len(specs) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}

	res := measure(specs, *seed, *seconds, *quick, stderr)
	for _, w := range res.Workloads {
		printWorkload(stdout, w)
	}
	if *out != "" {
		if err := writeResult(*out, res); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	line := summaryLine(res, *traceFlag == 1)
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// measure runs each workload's traced pass, then untraced samples
// round-robin until every workload has had its seconds and gone round its
// seed cycle (only the latter when quick), and summarises them.
func measure(specs []*spec, seed int64, seconds float64, quick bool, log io.Writer) result {
	host := newHostMeter()
	runners := make([]*runner, len(specs))
	for i, s := range specs {
		runners[i] = &runner{spec: s, seed: seed, host: host}
		runners[i].tracePass()
	}
	// Every runner goes round its seed cycle at least once, so the
	// simulated metrics always cover the whole cycle.
	deadline := time.Now().Add(time.Duration(seconds * float64(len(specs)) * float64(time.Second)))
	for {
		cycled := true
		for _, r := range runners {
			r.sample()
			cycled = cycled && r.next >= r.spec.cycleSamples()
		}
		if cycled && (quick || !time.Now().Before(deadline)) {
			break
		}
	}
	res := result{Seed: seed, Seconds: seconds}
	for _, r := range runners {
		for _, f := range r.failures {
			fmt.Fprintln(log, "bench: FAILED", f)
		}
		ops := 0
		for _, rec := range r.samples {
			ops += len(rec.ops)
		}
		res.Workloads = append(res.Workloads, workloadResult{
			Name:      r.spec.name,
			Attempted: r.attempted,
			Failed:    r.failed,
			Samples:   len(r.samples),
			Ops:       ops,
			EndToEnd:  r.endToEnd(),
			PerLayer:  r.perLayer(),
		})
	}
	return res
}

func printWorkload(w io.Writer, r workloadResult) {
	fmt.Fprintf(w, "%s: %d samples, %d ops, %d/%d ops failed\n", r.Name, r.Samples, r.Ops, r.Failed, r.Attempted)
	for _, d := range endToEnd {
		s := r.EndToEnd[d.name]
		fmt.Fprintf(w, "  %-34s %14.6g %-8s q1 %.6g  q3 %.6g  n %d\n", d.name, s.Value, d.unit, s.Q1, s.Q3, s.N)
	}
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, r.PerLayer[d.name], d.unit)
	}
}

// summaryLine folds a result into the last-line format. With one workload
// the metric names are bare; with several they are prefixed "workload/".
func summaryLine(res result, layers bool) lastLine {
	line := lastLine{Metrics: map[string]metricValue{}}
	for _, w := range res.Workloads {
		line.Attempted += w.Attempted
		line.Failed += w.Failed
		prefix := ""
		if len(res.Workloads) > 1 {
			prefix = w.Name + "/"
		}
		if layers {
			for _, d := range perLayer {
				line.Metrics[prefix+d.name] = metricValue{w.PerLayer[d.name], d.unit}
			}
		} else {
			for _, d := range endToEnd {
				line.Metrics[prefix+d.name] = metricValue{w.EndToEnd[d.name].Value, d.unit}
			}
		}
	}
	line.Correct = line.Failed == 0 && line.Attempted > 0
	return line
}

func writeResult(path string, res result) error {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResult(path string) (result, error) {
	var res result
	b, err := os.ReadFile(path)
	if err != nil {
		return res, err
	}
	if err := json.Unmarshal(b, &res); err != nil {
		return res, fmt.Errorf("%s: %w", path, err)
	}
	if len(res.Workloads) == 0 {
		return res, errors.New(path + ": no workloads")
	}
	return res, nil
}

// findWorkload returns the named workload of a result.
func findWorkload(res result, name string) (workloadResult, bool) {
	i := slices.IndexFunc(res.Workloads, func(w workloadResult) bool { return w.Name == name })
	if i < 0 {
		return workloadResult{}, false
	}
	return res.Workloads[i], true
}
