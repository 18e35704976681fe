package mote

import (
	"time"

	"envirotrack/internal/phenomena"
	"envirotrack/internal/sensor"
	"envirotrack/internal/simtime"
)

// Sweep drives the periodic sensing scan of a set of motes from one
// scheduler ticker. Every tick it resolves the field once into a
// sweep-owned snapshot, then samples each live sensing mote against it in
// the order the motes were added, so the field's targets are positioned
// once per tick rather than once per mote, channel and target. Sampling
// follows the sensor package's contract: a mote's SetChannel channels are
// evaluated on every scan, its preset channels only when a listener reads
// them. A sweep runs on one scheduler and is not safe for concurrent use; a sharded
// network builds one per shard, each with its own snapshot and scratch.
type Sweep struct {
	sched  *simtime.Scheduler
	field  *phenomena.Field
	period time.Duration
	motes  []*Mote
	ticker *simtime.Ticker

	// env, scan and rd are the per-tick scratch: the resolved field, the
	// scan state each mote's channels are memoised in, and the reading
	// handed to its listeners. Reusing them makes a steady-state tick
	// allocation-free.
	env  phenomena.Snapshot
	scan sensor.Scratch
	rd   sensor.Reading
}

// NewSweep returns an empty sweep scanning motes against field on sched.
func NewSweep(sched *simtime.Scheduler, field *phenomena.Field) *Sweep {
	return &Sweep{sched: sched, field: field}
}

// Add appends a mote to the sweep; motes are scanned in the order they are
// added (networks add them in ascending id order). Motes without a sensing
// model are pure relays and are skipped. The sweep ticks at the
// SensePeriod of the first sensing mote added: the motes of one sweep
// share one configuration.
func (s *Sweep) Add(m *Mote) {
	if m.model == nil {
		return
	}
	if len(s.motes) == 0 {
		s.period = m.cfg.SensePeriod
	}
	s.motes = append(s.motes, m)
}

// Start arms the sweep's ticker; the first scan runs one period from now.
// It is idempotent, and a sweep with no sensing motes arms nothing.
func (s *Sweep) Start() {
	if s.ticker != nil || len(s.motes) == 0 {
		return
	}
	s.ticker = simtime.NewTickerOwned(s.sched, s.period, simtime.OwnerSense, s.tick)
}

// Stop halts the sweep's scans.
func (s *Sweep) Stop() {
	s.ticker.Stop()
	s.ticker = nil
}

// tick runs one scan of every live mote against the field resolved at the
// scheduler's current time.
func (s *Sweep) tick() {
	s.field.Resolve(s.sched.Now(), &s.env)
	for _, m := range s.motes {
		if m.hot.failed[m.hotIdx] {
			continue
		}
		s.rd = m.model.SampleInto(&s.env, int(m.id), m.pos, &s.scan)
		for _, l := range m.listeners {
			l(&s.rd)
		}
	}
}
