package mote

import (
	"fmt"
	"math/bits"

	"envirotrack/internal/phenomena"
	"envirotrack/internal/radio"
	"envirotrack/internal/sensor"
	"envirotrack/internal/simtime"
)

// Sweep drives the periodic sensing scan of the motes of one Env from one
// ticker on the env's scheduler. Every tick it resolves the field once
// into a sweep-owned snapshot, then samples each live sensing mote against
// it in the order the motes were added, so the field's targets are
// positioned once per tick rather than once per mote, channel and target.
// After sampling a mote it calls the Scanner of each context type attached
// to it (HotState.Attach), in type-bit order. Sampling follows the sensor
// package's contract: a mote's SetChannel channels are evaluated on every
// scan, its preset channels only when a scanner reads them.
//
// The sweep holds no mote pointers. It walks dense rows built by Add (the
// motes' HotState rows, ids and models) and reads position, failure flag
// and attached word from the env's HotState, so a scan touches only
// slices. A sweep runs on its env's scheduler and is not safe for
// concurrent use; a sharded network builds one per shard, each with its
// own snapshot and scratch.
type Sweep struct {
	env    *Env
	ticker *simtime.Ticker

	// rows, ids and models are parallel, one entry per sensing mote in add
	// order.
	rows   []int32
	ids    []radio.NodeID
	models []*sensor.Model

	// snap, scan and rd are the per-tick scratch: the resolved field, the
	// scan state each mote's channels are memoised in, and the reading
	// handed to its scanners. Reusing them makes a steady-state tick
	// allocation-free.
	snap phenomena.Snapshot
	scan sensor.Scratch
	rd   sensor.Reading
}

// NewSweep returns an empty sweep scanning motes of env against its field,
// every env.Config.SensePeriod.
func NewSweep(env *Env) *Sweep {
	return &Sweep{env: env}
}

// Add appends a mote to the sweep; motes are scanned in the order they are
// added (networks add them in ascending id order). Motes without a sensing
// model are pure relays and are skipped. Every mote of a sweep must be
// built on the sweep's env, so it runs on the sweep's scheduler and has a
// row in the env's HotState.
func (s *Sweep) Add(m *Mote) {
	if m.model == nil {
		return
	}
	if m.env != s.env {
		panic(fmt.Sprintf("mote: sweep: mote %d is built on another env", m.id))
	}
	s.rows = append(s.rows, m.row)
	s.ids = append(s.ids, m.id)
	s.models = append(s.models, m.model)
}

// Start arms the sweep's ticker; the first scan runs one period from now.
// It is idempotent, and a sweep with no sensing motes arms nothing. Start
// trims the rows to their length: append slack would stay live for the
// whole run.
func (s *Sweep) Start() {
	if s.ticker != nil || len(s.rows) == 0 {
		return
	}
	s.rows, s.ids, s.models = exact(s.rows), exact(s.ids), exact(s.models)
	s.ticker = simtime.NewTickerOwned(s.env.Sched, s.env.Config.SensePeriod, simtime.OwnerSense, s.tick)
}

// exact returns xs in a slice of capacity len(xs).
func exact[T any](xs []T) []T {
	if cap(xs) == len(xs) {
		return xs
	}
	return append(make([]T, 0, len(xs)), xs...)
}

// Stop halts the sweep's scans.
func (s *Sweep) Stop() {
	s.ticker.Stop()
	s.ticker = nil
}

// tick runs one scan of every live mote against the field resolved at the
// scheduler's current time.
func (s *Sweep) tick() {
	s.env.Field.Resolve(s.env.Sched.Now(), &s.snap)
	h := s.env.Hot
	// Reslicing to len(rows) lets the compiler drop the per-row bounds
	// checks on ids and models.
	ids, models := s.ids[:len(s.rows)], s.models[:len(s.rows)]
	for k, row := range s.rows {
		if h.failed[row] {
			continue
		}
		s.rd = models[k].SampleInto(&s.snap, int(ids[k]), h.pos[row], &s.scan)
		if h.attached == nil {
			continue
		}
		for w := h.attached[row]; w != 0; w &= w - 1 {
			h.scanners[bits.TrailingZeros32(w)].Scan(int(row), &s.rd)
		}
	}
}
