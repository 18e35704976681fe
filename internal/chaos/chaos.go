// Package chaos is the deterministic fault-injection harness for the
// simulator. A declarative Schedule describes node crashes, step and ramp
// packet-loss overrides, spatial partitions, and message-duplication
// faults; an Injector replays the schedule on the simulation scheduler,
// so the same seed plus the same schedule always produces the same run.
//
// Schedules have a compact textual spec (the etsim -chaos flag):
//
//	crash:node=17,at=10s,for=5s;loss:at=20s,for=10s,p=0.5;
//	ramp:from=0,to=0.6,start=10s,end=30s;partition:x=5,at=15s,for=10s;
//	dup:at=5s,for=20s,p=0.3
//
// Clauses are ';'-separated, fields ','-separated key=value pairs.
// Durations use Go syntax (10s, 500ms); omitting for= makes a fault
// permanent from its onset. When overlapping loss clauses are active the
// later-declared clause wins.
package chaos

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Crash takes a node down at At and, when For > 0, restores it at At+For.
type Crash struct {
	Node int
	At   time.Duration
	For  time.Duration // 0 = never restored
}

// LossStep overrides the medium's iid loss probability with P while
// active.
type LossStep struct {
	At  time.Duration
	For time.Duration // 0 = until the end of the run
	P   float64
}

// LossRamp linearly interpolates the loss probability from From at Start
// to To at End; outside [Start, End) it does not apply.
type LossRamp struct {
	From, To   float64
	Start, End time.Duration
}

// Partition severs every radio link crossing the vertical line x = X
// while active, splitting the field into two isolated halves.
type Partition struct {
	X   float64
	At  time.Duration
	For time.Duration // 0 = until the end of the run
}

// Duplication transmits a second copy of each frame with probability P
// while active (stale-message stress: duplicated heartbeats, join
// requests, reports).
type Duplication struct {
	At  time.Duration
	For time.Duration // 0 = until the end of the run
	P   float64
}

// Schedule is a declarative fault plan. The zero value injects nothing.
type Schedule struct {
	Crashes    []Crash
	Losses     []LossStep
	Ramps      []LossRamp
	Partitions []Partition
	Dups       []Duplication
}

// Empty reports whether the schedule injects any fault at all.
func (s Schedule) Empty() bool {
	return len(s.Crashes) == 0 && len(s.Losses) == 0 && len(s.Ramps) == 0 &&
		len(s.Partitions) == 0 && len(s.Dups) == 0
}

// Validate checks field ranges; the injector refuses invalid schedules.
func (s Schedule) Validate() error {
	for _, c := range s.Crashes {
		if c.Node < 0 {
			return fmt.Errorf("chaos: crash node %d is negative", c.Node)
		}
		if c.At < 0 || c.For < 0 {
			return fmt.Errorf("chaos: crash of node %d has negative time", c.Node)
		}
	}
	for _, l := range s.Losses {
		if l.P < 0 || l.P > 1 {
			return fmt.Errorf("chaos: loss p=%g outside [0,1]", l.P)
		}
		if l.At < 0 || l.For < 0 {
			return fmt.Errorf("chaos: loss step has negative time")
		}
	}
	for _, r := range s.Ramps {
		if r.From < 0 || r.From > 1 || r.To < 0 || r.To > 1 {
			return fmt.Errorf("chaos: ramp endpoints (%g, %g) outside [0,1]", r.From, r.To)
		}
		if r.Start < 0 || r.End <= r.Start {
			return fmt.Errorf("chaos: ramp window [%v, %v) is empty or negative", r.Start, r.End)
		}
	}
	for _, p := range s.Partitions {
		if p.At < 0 || p.For < 0 {
			return fmt.Errorf("chaos: partition has negative time")
		}
	}
	for _, d := range s.Dups {
		if d.P < 0 || d.P > 1 {
			return fmt.Errorf("chaos: dup p=%g outside [0,1]", d.P)
		}
		if d.At < 0 || d.For < 0 {
			return fmt.Errorf("chaos: dup has negative time")
		}
	}
	return nil
}

// String renders the schedule in the textual spec format; ParseSchedule
// of the result reproduces the schedule.
func (s Schedule) String() string {
	var clauses []string
	for _, c := range s.Crashes {
		cl := fmt.Sprintf("crash:node=%d,at=%s", c.Node, c.At)
		if c.For > 0 {
			cl += ",for=" + c.For.String()
		}
		clauses = append(clauses, cl)
	}
	for _, l := range s.Losses {
		cl := fmt.Sprintf("loss:at=%s", l.At)
		if l.For > 0 {
			cl += ",for=" + l.For.String()
		}
		cl += ",p=" + strconv.FormatFloat(l.P, 'g', -1, 64)
		clauses = append(clauses, cl)
	}
	for _, r := range s.Ramps {
		clauses = append(clauses, fmt.Sprintf("ramp:from=%s,to=%s,start=%s,end=%s",
			strconv.FormatFloat(r.From, 'g', -1, 64),
			strconv.FormatFloat(r.To, 'g', -1, 64), r.Start, r.End))
	}
	for _, p := range s.Partitions {
		cl := fmt.Sprintf("partition:x=%s,at=%s",
			strconv.FormatFloat(p.X, 'g', -1, 64), p.At)
		if p.For > 0 {
			cl += ",for=" + p.For.String()
		}
		clauses = append(clauses, cl)
	}
	for _, d := range s.Dups {
		cl := fmt.Sprintf("dup:at=%s", d.At)
		if d.For > 0 {
			cl += ",for=" + d.For.String()
		}
		cl += ",p=" + strconv.FormatFloat(d.P, 'g', -1, 64)
		clauses = append(clauses, cl)
	}
	return strings.Join(clauses, ";")
}

// ParseSchedule parses the textual spec format described in the package
// comment. An empty spec yields an empty schedule.
func ParseSchedule(spec string) (Schedule, error) {
	var s Schedule
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return s, nil
	}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		kind, rest, ok := strings.Cut(clause, ":")
		if !ok {
			return Schedule{}, fmt.Errorf("chaos: clause %q has no kind (want kind:key=value,...)", clause)
		}
		fields, err := parseFields(rest)
		if err != nil {
			return Schedule{}, fmt.Errorf("chaos: clause %q: %w", clause, err)
		}
		switch kind {
		case "crash":
			c := Crash{
				Node: int(fields.num("node", -1)),
				At:   fields.dur("at", 0),
				For:  fields.dur("for", 0),
			}
			if err := fields.check("node", "at", "for"); err != nil {
				return Schedule{}, fmt.Errorf("chaos: clause %q: %w", clause, err)
			}
			if !fields.has("node") {
				return Schedule{}, fmt.Errorf("chaos: clause %q: crash needs node=", clause)
			}
			s.Crashes = append(s.Crashes, c)
		case "loss":
			l := LossStep{
				At:  fields.dur("at", 0),
				For: fields.dur("for", 0),
				P:   fields.num("p", -1),
			}
			if err := fields.check("at", "for", "p"); err != nil {
				return Schedule{}, fmt.Errorf("chaos: clause %q: %w", clause, err)
			}
			if !fields.has("p") {
				return Schedule{}, fmt.Errorf("chaos: clause %q: loss needs p=", clause)
			}
			s.Losses = append(s.Losses, l)
		case "ramp":
			r := LossRamp{
				From:  fields.num("from", 0),
				To:    fields.num("to", 0),
				Start: fields.dur("start", 0),
				End:   fields.dur("end", 0),
			}
			if err := fields.check("from", "to", "start", "end"); err != nil {
				return Schedule{}, fmt.Errorf("chaos: clause %q: %w", clause, err)
			}
			if !fields.has("to") || !fields.has("end") {
				return Schedule{}, fmt.Errorf("chaos: clause %q: ramp needs to= and end=", clause)
			}
			s.Ramps = append(s.Ramps, r)
		case "partition":
			p := Partition{
				X:   fields.num("x", 0),
				At:  fields.dur("at", 0),
				For: fields.dur("for", 0),
			}
			if err := fields.check("x", "at", "for"); err != nil {
				return Schedule{}, fmt.Errorf("chaos: clause %q: %w", clause, err)
			}
			if !fields.has("x") {
				return Schedule{}, fmt.Errorf("chaos: clause %q: partition needs x=", clause)
			}
			s.Partitions = append(s.Partitions, p)
		case "dup":
			d := Duplication{
				At:  fields.dur("at", 0),
				For: fields.dur("for", 0),
				P:   fields.num("p", -1),
			}
			if err := fields.check("at", "for", "p"); err != nil {
				return Schedule{}, fmt.Errorf("chaos: clause %q: %w", clause, err)
			}
			if !fields.has("p") {
				return Schedule{}, fmt.Errorf("chaos: clause %q: dup needs p=", clause)
			}
			s.Dups = append(s.Dups, d)
		default:
			return Schedule{}, fmt.Errorf("chaos: unknown fault kind %q (want crash/loss/ramp/partition/dup)", kind)
		}
	}
	if err := s.Validate(); err != nil {
		return Schedule{}, err
	}
	return s, nil
}

// fieldSet is one parsed clause body, tracking parse errors and which
// keys were consumed so unknown keys are rejected.
type fieldSet struct {
	kv   map[string]string
	used map[string]bool
	err  error
}

func parseFields(rest string) (*fieldSet, error) {
	fs := &fieldSet{kv: map[string]string{}, used: map[string]bool{}}
	for _, pair := range strings.Split(rest, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		k, v, ok := strings.Cut(pair, "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("field %q is not key=value", pair)
		}
		if _, dup := fs.kv[k]; dup {
			return nil, fmt.Errorf("duplicate field %q", k)
		}
		fs.kv[k] = v
	}
	return fs, nil
}

func (fs *fieldSet) has(key string) bool {
	_, ok := fs.kv[key]
	return ok
}

// num parses a float field, returning def when absent.
func (fs *fieldSet) num(key string, def float64) float64 {
	v, ok := fs.kv[key]
	if !ok {
		return def
	}
	fs.used[key] = true
	f, err := strconv.ParseFloat(v, 64)
	if (err != nil || math.IsNaN(f) || math.IsInf(f, 0)) && fs.err == nil {
		fs.err = fmt.Errorf("field %s=%q is not a finite number", key, v)
	}
	return f
}

// dur parses a duration field, returning def when absent.
func (fs *fieldSet) dur(key string, def time.Duration) time.Duration {
	v, ok := fs.kv[key]
	if !ok {
		return def
	}
	fs.used[key] = true
	d, err := time.ParseDuration(v)
	if err != nil && fs.err == nil {
		fs.err = fmt.Errorf("field %s=%q is not a duration", key, v)
	}
	return d
}

// check surfaces a deferred parse error or an unrecognized key.
func (fs *fieldSet) check(allowed ...string) error {
	if fs.err != nil {
		return fs.err
	}
	var unknown []string
	for k := range fs.kv {
		ok := false
		for _, a := range allowed {
			if k == a {
				ok = true
				break
			}
		}
		if !ok {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("unknown field(s) %s", strings.Join(unknown, ", "))
	}
	return nil
}
