package chaos

import (
	"math"
	"testing"
)

// FuzzParseSchedule asserts the spec parser's total-function contract:
// any input — the raw text of etsim -chaos — returns an error or a
// schedule, never panics. An accepted schedule must be valid, with every
// probability and partition line a real number, and must survive the
// String/ParseSchedule round trip unchanged.
func FuzzParseSchedule(f *testing.F) {
	for _, s := range []string{
		"",
		"crash:node=17,at=10s,for=5s",
		"loss:at=20s,for=10s,p=0.5",
		"ramp:from=0,to=0.6,start=10s,end=30s",
		"partition:x=5,at=15s,for=10s",
		"dup:at=5s,for=20s,p=0.3",
		"crash:node=5,at=28s,for=8s;loss:at=20s,for=8s,p=0.4;dup:at=35s,for=10s,p=0.2",
		"crash:at=1s",
		"loss:p=2",
		"loss:p=NaN",
		"partition:x=Inf",
		"explode:at=1s",
		"crash:node=1,at=1s,bogus=2",
		"loss:p=0.5,p=0.5",
		";;crash:node=1,at=1h;",
		"crash:node=1e300",
		"loss:at=-1s,p=0.1",
		"ramp:from=0,to=1,start=5s,end=5s",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSchedule(spec)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseSchedule(%q) accepted an invalid schedule: %v", spec, err)
		}
		prob := func(p float64) bool { return p >= 0 && p <= 1 }
		for _, l := range s.Losses {
			if !prob(l.P) {
				t.Fatalf("ParseSchedule(%q): loss p=%v", spec, l.P)
			}
		}
		for _, r := range s.Ramps {
			if !prob(r.From) || !prob(r.To) {
				t.Fatalf("ParseSchedule(%q): ramp %v..%v", spec, r.From, r.To)
			}
		}
		for _, d := range s.Dups {
			if !prob(d.P) {
				t.Fatalf("ParseSchedule(%q): dup p=%v", spec, d.P)
			}
		}
		for _, p := range s.Partitions {
			if math.IsNaN(p.X) || math.IsInf(p.X, 0) {
				t.Fatalf("ParseSchedule(%q): partition x=%v", spec, p.X)
			}
		}
		round, err := ParseSchedule(s.String())
		if err != nil {
			t.Fatalf("rendered schedule %q (from %q) does not re-parse: %v", s.String(), spec, err)
		}
		if round.String() != s.String() {
			t.Fatalf("round trip of %q changed it: %q -> %q", spec, s.String(), round.String())
		}
	})
}
