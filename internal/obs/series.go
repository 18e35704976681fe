package obs

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Probe is one named health signal sampled on the series cadence. Sample
// is called from the simulation goroutine at sample time, so it may read
// live protocol state without locking but must not mutate it.
type Probe struct {
	Name   string
	Sample func() float64
}

// Series is a columnar time series: one time column plus one float column
// per probe, all the same length. It renders as an aligned table or
// marshals to JSON for external plotting.
type Series struct {
	mu    sync.Mutex
	names []string
	times []time.Duration
	cols  [][]float64
}

// Sampler snapshots a fixed probe set into a Series. The owner (the
// Network) drives it from a scheduler ticker so cadence is sim time, not
// wall time.
type Sampler struct {
	probes []Probe
	series *Series
}

// NewSampler builds a sampler over the given probes.
func NewSampler(probes ...Probe) *Sampler {
	names := make([]string, len(probes))
	for i, p := range probes {
		names[i] = p.Name
	}
	return &Sampler{
		probes: probes,
		series: &Series{names: names, cols: make([][]float64, len(probes))},
	}
}

// Sample appends one row at sim time now.
func (sm *Sampler) Sample(now time.Duration) {
	row := make([]float64, len(sm.probes))
	for i, p := range sm.probes {
		row[i] = p.Sample()
	}
	s := sm.series
	s.mu.Lock()
	s.times = append(s.times, now)
	for i, v := range row {
		s.cols[i] = append(s.cols[i], v)
	}
	s.mu.Unlock()
}

// Series returns the accumulating series.
func (sm *Sampler) Series() *Series { return sm.series }

// Len returns the number of samples taken.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.times)
}

// Column returns a copy of one named column, or nil if absent.
func (s *Series) Column(name string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, n := range s.names {
		if n == name {
			return append([]float64(nil), s.cols[i]...)
		}
	}
	return nil
}

// Render formats the series as an aligned text table:
//
//	t_s      live_labels  group_size  ...
//	0.0      0            0
//	5.0      1            4
func (s *Series) Render() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", "t_s")
	for _, n := range s.names {
		fmt.Fprintf(&b, "  %12s", n)
	}
	b.WriteByte('\n')
	for r := range s.times {
		fmt.Fprintf(&b, "%-10.1f", s.times[r].Seconds())
		for c := range s.names {
			fmt.Fprintf(&b, "  %12s", trimFloat(s.cols[c][r]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// trimFloat formats with at most 4 decimals, dropping trailing zeros.
func trimFloat(v float64) string {
	out := strconv.FormatFloat(v, 'f', 4, 64)
	out = strings.TrimRight(out, "0")
	out = strings.TrimSuffix(out, ".")
	return out
}

// MarshalJSON renders {"t":[...],"cols":{"name":[...],...}} with columns
// in declaration order (hand-built so order is stable).
func (s *Series) MarshalJSON() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b []byte
	b = append(b, `{"t":[`...)
	for i, t := range s.times {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, t.Seconds(), 'f', -1, 64)
	}
	b = append(b, `],"cols":{`...)
	for c, n := range s.names {
		if c > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, n)
		b = append(b, ':', '[')
		for i, v := range s.cols[c] {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONFloat(b, v)
		}
		b = append(b, ']')
	}
	b = append(b, '}', '}')
	return b, nil
}

// appendJSONFloat emits NaN/Inf (invalid JSON numbers) as null.
func appendJSONFloat(b []byte, v float64) []byte {
	if v != v || v > 1e308 || v < -1e308 {
		return append(b, `null`...)
	}
	return strconv.AppendFloat(b, v, 'f', -1, 64)
}
