// Command ettrace analyzes JSONL protocol traces written by
// etsim -trace-out, reconstructing end-to-end report spans and leadership
// handover spans from the correlated event stream.
//
// Usage:
//
//	etsim -exp fig3 -trace-out trace.jsonl
//	ettrace trace.jsonl                  # text report
//	ettrace -format json trace.jsonl     # machine-readable report
//	ettrace -top 20 trace.jsonl          # 20 slowest delivered reports
//	ettrace -run 3 trace.jsonl           # only events tagged run=3
//	cat trace.jsonl | ettrace            # reads stdin without a file arg
//
// The text report shows delivery counts per message kind, a root-cause
// breakdown for every undelivered report, per-hop latency waterfalls for
// the slowest delivered reports, and the handover timeline. The JSON
// report carries the same data under stable keys (summary, kinds,
// root_causes, slowest, handovers) for scripted consumption.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"envirotrack"
)

type config struct {
	format string
	top    int
	run    int64
	input  io.Reader
	name   string // input name for error messages
	stdout io.Writer
}

func main() {
	var cfg config
	flag.StringVar(&cfg.format, "format", "text", "output format: text or json")
	flag.IntVar(&cfg.top, "top", 10, "number of slowest delivered reports to show")
	flag.Int64Var(&cfg.run, "run", 0, "only analyze events with this run tag (0 = all runs)")
	flag.Parse()

	cfg.input, cfg.name = os.Stdin, "stdin"
	switch flag.NArg() {
	case 0:
	case 1:
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "ettrace:", err)
			os.Exit(2)
		}
		defer f.Close()
		cfg.input, cfg.name = f, flag.Arg(0)
	default:
		fmt.Fprintln(os.Stderr, "ettrace: at most one trace file argument (default stdin)")
		os.Exit(2)
	}
	cfg.stdout = os.Stdout

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "ettrace:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	jsonOut := false
	switch cfg.format {
	case "", "text":
	case "json":
		jsonOut = true
	default:
		return fmt.Errorf("unknown format %q (want text or json)", cfg.format)
	}
	if cfg.top < 0 {
		return fmt.Errorf("-top %d: must not be negative", cfg.top)
	}

	sink := envirotrack.NewSpanSink()
	events, err := feed(cfg, sink)
	if err != nil {
		return err
	}
	rep := analyze(events, sink.Reports(), sink.Handovers(), cfg.top)

	if jsonOut {
		enc := json.NewEncoder(cfg.stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	renderText(cfg.stdout, rep)
	return nil
}

// feed parses the trace line by line into the sink, returning the number
// of events consumed. A malformed or unknown line is a hard error — a
// corrupted trace should fail loudly, not skew the analysis.
func feed(cfg config, sink *envirotrack.SpanSink) (int, error) {
	sc := bufio.NewScanner(cfg.input)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	events, lineNo := 0, 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		ev, err := envirotrack.ParseTraceEvent(line)
		if err != nil {
			return events, fmt.Errorf("%s:%d: %w", cfg.name, lineNo, err)
		}
		if cfg.run != 0 && ev.Run != cfg.run {
			continue
		}
		sink.Emit(ev)
		events++
	}
	if err := sc.Err(); err != nil {
		return events, fmt.Errorf("read %s: %w", cfg.name, err)
	}
	return events, nil
}

// --- report model (doubles as the JSON schema) ---

type report struct {
	Events    int            `json:"events"`
	Summary   summary        `json:"summary"`
	Kinds     []kindRow      `json:"kinds"`
	Causes    []causeRow     `json:"root_causes"`
	Slowest   []spanView     `json:"slowest"`
	Handovers []handoverView `json:"handovers"`
}

type summary struct {
	Spans        int     `json:"spans"`
	Delivered    int     `json:"delivered"`
	Undelivered  int     `json:"undelivered"`
	DeliveryPct  float64 `json:"delivery_pct"`
	LatencyMeanS float64 `json:"latency_mean_s"`
	LatencyP50S  float64 `json:"latency_p50_s"`
	LatencyP99S  float64 `json:"latency_p99_s"`
	LatencyMaxS  float64 `json:"latency_max_s"`
	Handovers    int     `json:"handovers"`
}

type kindRow struct {
	Kind        string  `json:"kind"`
	Spans       int     `json:"spans"`
	Delivered   int     `json:"delivered"`
	MeanHops    float64 `json:"mean_hops"`
	LatencyMean float64 `json:"latency_mean_s"`
}

type causeRow struct {
	Cause string `json:"cause"`
	Count int    `json:"count"`
}

type spanView struct {
	Run       int64     `json:"run"`
	Label     string    `json:"label"`
	Origin    int       `json:"origin"`
	Seq       uint64    `json:"seq"`
	Kind      string    `json:"kind"`
	Src       int       `json:"src"`
	Dst       int       `json:"dst"`
	SentS     float64   `json:"sent_s"`
	Delivered bool      `json:"delivered"`
	LatencyS  float64   `json:"latency_s"`
	To        int       `json:"delivered_to"`
	RootCause string    `json:"root_cause,omitempty"`
	Forwards  int       `json:"forwards"`
	ChainHops int       `json:"chain_hops"`
	Hops      []hopView `json:"hops"`
}

type hopView struct {
	Frame   uint64  `json:"frame"`
	From    int     `json:"from"`
	To      int     `json:"to"`
	SentS   float64 `json:"sent_s"`
	EndS    float64 `json:"end_s"`
	Outcome string  `json:"outcome"`
}

type handoverView struct {
	Run       int64       `json:"run"`
	Label     string      `json:"label"`
	OldLeader int         `json:"old_leader"`
	NewLeader int         `json:"new_leader"`
	TakeoverS float64     `json:"takeover_s"`
	GapS      float64     `json:"gap_s"`
	Chain     []chainView `json:"chain"`
}

type chainView struct {
	TS   float64 `json:"t_s"`
	Ev   string  `json:"ev"`
	Mote int     `json:"mote"`
}

func analyze(events int, spans []envirotrack.ReportSpan, handovers []envirotrack.HandoverSpan, top int) report {
	rep := report{Events: events}
	rep.Summary.Spans = len(spans)
	rep.Summary.Handovers = len(handovers)

	kinds := map[string]*kindRow{}
	causes := map[string]int{}
	var latencies []time.Duration
	var delivered []envirotrack.ReportSpan
	for _, sp := range spans {
		k := kinds[string(sp.Kind)]
		if k == nil {
			k = &kindRow{Kind: string(sp.Kind)}
			kinds[string(sp.Kind)] = k
		}
		k.Spans++
		k.MeanHops += float64(len(sp.Hops))
		if sp.Delivered {
			rep.Summary.Delivered++
			k.Delivered++
			k.LatencyMean += sp.Latency.Seconds()
			latencies = append(latencies, sp.Latency)
			delivered = append(delivered, sp)
		} else {
			rep.Summary.Undelivered++
			causes[sp.RootCause]++
		}
	}
	if rep.Summary.Spans > 0 {
		rep.Summary.DeliveryPct = 100 * float64(rep.Summary.Delivered) / float64(rep.Summary.Spans)
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		var sum time.Duration
		for _, l := range latencies {
			sum += l
		}
		rep.Summary.LatencyMeanS = sum.Seconds() / float64(len(latencies))
		rep.Summary.LatencyP50S = quantile(latencies, 0.50).Seconds()
		rep.Summary.LatencyP99S = quantile(latencies, 0.99).Seconds()
		rep.Summary.LatencyMaxS = latencies[len(latencies)-1].Seconds()
	}

	for _, k := range kinds {
		if k.Spans > 0 {
			k.MeanHops /= float64(k.Spans)
		}
		if k.Delivered > 0 {
			k.LatencyMean /= float64(k.Delivered)
		}
		rep.Kinds = append(rep.Kinds, *k)
	}
	sort.Slice(rep.Kinds, func(i, j int) bool { return rep.Kinds[i].Kind < rep.Kinds[j].Kind })

	rep.Causes = make([]causeRow, 0, len(causes))
	for c, n := range causes {
		rep.Causes = append(rep.Causes, causeRow{Cause: c, Count: n})
	}
	sort.Slice(rep.Causes, func(i, j int) bool {
		if rep.Causes[i].Count != rep.Causes[j].Count {
			return rep.Causes[i].Count > rep.Causes[j].Count
		}
		return rep.Causes[i].Cause < rep.Causes[j].Cause
	})

	sort.SliceStable(delivered, func(i, j int) bool { return delivered[i].Latency > delivered[j].Latency })
	if len(delivered) > top {
		delivered = delivered[:top]
	}
	rep.Slowest = make([]spanView, 0, len(delivered))
	for _, sp := range delivered {
		rep.Slowest = append(rep.Slowest, viewSpan(sp))
	}

	rep.Handovers = make([]handoverView, 0, len(handovers))
	for _, h := range handovers {
		hv := handoverView{
			Run: h.Run, Label: h.Label, OldLeader: h.OldLeader, NewLeader: h.NewLeader,
			TakeoverS: h.TakeoverAt.Seconds(), GapS: h.Gap.Seconds(),
			Chain: make([]chainView, 0, len(h.Chain)),
		}
		for _, c := range h.Chain {
			hv.Chain = append(hv.Chain, chainView{TS: c.At.Seconds(), Ev: c.Type.String(), Mote: c.Mote})
		}
		rep.Handovers = append(rep.Handovers, hv)
	}
	return rep
}

func viewSpan(sp envirotrack.ReportSpan) spanView {
	v := spanView{
		Run: sp.Run, Label: sp.Label, Origin: sp.Origin, Seq: sp.Seq,
		Kind: string(sp.Kind), Src: sp.Src, Dst: sp.Dst,
		SentS: sp.SentAt.Seconds(), Delivered: sp.Delivered,
		LatencyS: sp.Latency.Seconds(), To: sp.DeliveredTo,
		RootCause: sp.RootCause, Forwards: sp.Forwards, ChainHops: sp.ChainHops,
		Hops: make([]hopView, 0, len(sp.Hops)),
	}
	for _, h := range sp.Hops {
		v.Hops = append(v.Hops, hopView{
			Frame: h.Frame, From: h.From, To: h.To,
			SentS: h.SentAt.Seconds(), EndS: h.EndAt.Seconds(), Outcome: h.Outcome,
		})
	}
	return v
}

// quantile returns the q-th order statistic of a sorted slice (nearest
// rank; q in [0,1]).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)) + 0.5)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// --- text rendering ---

func renderText(w io.Writer, rep report) {
	s := rep.Summary
	fmt.Fprintf(w, "trace: %d correlated events, %d report spans, %d handovers\n\n", rep.Events, s.Spans, s.Handovers)

	fmt.Fprintf(w, "delivery: %d/%d delivered (%.1f%%)\n", s.Delivered, s.Spans, s.DeliveryPct)
	if s.Delivered > 0 {
		fmt.Fprintf(w, "latency:  mean %s  p50 %s  p99 %s  max %s\n",
			fmtS(s.LatencyMeanS), fmtS(s.LatencyP50S), fmtS(s.LatencyP99S), fmtS(s.LatencyMaxS))
	}

	if len(rep.Kinds) > 0 {
		fmt.Fprintf(w, "\n%-12s %8s %10s %10s %12s\n", "kind", "spans", "delivered", "mean hops", "mean latency")
		for _, k := range rep.Kinds {
			fmt.Fprintf(w, "%-12s %8d %10d %10.1f %12s\n",
				k.Kind, k.Spans, k.Delivered, k.MeanHops, fmtS(k.LatencyMean))
		}
	}

	if len(rep.Causes) > 0 {
		fmt.Fprintf(w, "\nundelivered root causes:\n")
		for _, c := range rep.Causes {
			fmt.Fprintf(w, "  %-14s %6d\n", c.Cause, c.Count)
		}
	}

	if len(rep.Slowest) > 0 {
		fmt.Fprintf(w, "\nslowest delivered reports:\n")
		for i, sp := range rep.Slowest {
			fmt.Fprintf(w, "#%d %s %q origin=%d seq=%d run=%d: %s (%d->%d, %d hops, %d forwards",
				i+1, sp.Kind, sp.Label, sp.Origin, sp.Seq, sp.Run,
				fmtS(sp.LatencyS), sp.Src, sp.To, len(sp.Hops), sp.Forwards)
			if sp.ChainHops > 0 {
				fmt.Fprintf(w, ", %d chain hops", sp.ChainHops)
			}
			fmt.Fprintf(w, ")\n")
			for _, h := range sp.Hops {
				to := fmt.Sprintf("%d", h.To)
				if h.To < 0 {
					to = "-"
				}
				fmt.Fprintf(w, "    t=%-10s +%-10s %4d -> %-4s %s\n",
					fmtS(h.SentS), fmtS(h.EndS-sp.SentS), h.From, to, h.Outcome)
			}
		}
	}

	if len(rep.Handovers) > 0 {
		fmt.Fprintf(w, "\nhandovers:\n")
		for _, h := range rep.Handovers {
			old := fmt.Sprintf("%d", h.OldLeader)
			if h.OldLeader < 0 {
				old = "?"
			}
			fmt.Fprintf(w, "  t=%-10s %q run=%d: leader %s -> %d (gap %s, %d chain events)\n",
				fmtS(h.TakeoverS), h.Label, h.Run, old, h.NewLeader, fmtS(h.GapS), len(h.Chain))
		}
	}
}

// fmtS renders seconds compactly (µs under 1ms, ms under 1s).
func fmtS(s float64) string {
	d := time.Duration(s * float64(time.Second))
	switch {
	case d == 0:
		return "0s"
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.3fs", s)
	}
}
