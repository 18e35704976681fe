package group

import "time"

// Protocol timing, following Section 6.2: "best results are achieved when
// the receive and wait timers are set to 2.1 and 4.2 times the leader
// heartbeat period respectively".
const (
	DefaultHeartbeatPeriod = 500 * time.Millisecond
	DefaultHopsPast        = 1
	// ReceiveFactor scales the member receive timer that triggers
	// leadership takeover (two missed heartbeats).
	ReceiveFactor = 2.1
	// WaitFactor scales the non-member wait timer that decides between
	// joining an existing label and spawning a new one.
	WaitFactor = 4.2
	// JitterFrac randomizes the receive timer (and the heartbeat period)
	// by up to this fraction to desynchronize simultaneous takeovers.
	JitterFrac = 0.1
	// HeartbeatBits sizes a heartbeat frame on the air, before its
	// piggybacked label state.
	HeartbeatBits = 48 * 8
)

// reportBits sizes a member report frame on the air.
const reportBits = 40 * 8

// floodJitter is the maximum random delay a node waits before
// re-broadcasting a flooded heartbeat. Without it, all members rebroadcast
// at the same instant and the copies collide at every receiver (a
// broadcast storm). The window is sized to fit several frame airtimes so
// suppression can observe earlier copies.
const floodJitter = 100 * time.Millisecond

// weightSlack is the tolerance band for comparing leader weights of
// *different* labels of the same type. Weights are observed through
// heartbeats and hence stale; two groups tracking the same entity can
// leapfrog each other's weight forever. Within the band the label
// identity breaks the tie globally consistently, guaranteeing merge.
const weightSlack = 4

// Config parameterizes the group-management protocol for one context type.
type Config struct {
	// HeartbeatPeriod is the leader's announcement period.
	HeartbeatPeriod time.Duration
	// HopsPast is h: how many hops beyond the group perimeter heartbeats
	// are flooded. Zero relies on the communication radius alone.
	HopsPast int
	// ReportPeriod is the member data-collection period Pe. Zero means
	// the heartbeat period.
	ReportPeriod time.Duration
	// DisableRelinquish turns off the explicit leadership-relinquish
	// optimization; recovery then relies on receive-timer takeover alone
	// (the "worst case" mode of Figure 5).
	DisableRelinquish bool
	// CreationBackoff is the random delay before a freshly sensing node
	// with no known label creates one, giving in-flight heartbeats a
	// chance to arrive. Zero means half the heartbeat period.
	CreationBackoff time.Duration
	// FloodSuppress is the counter-based broadcast-storm suppression
	// threshold: a node cancels its pending rebroadcast after overhearing
	// this many copies of the same heartbeat during its jitter window
	// ("a single message transmission may be enough to flood the group").
	// Default 1: one overheard relay proves the neighborhood is covered.
	FloodSuppress int
}

// WithDefaults fills the zero fields. Both tracking backends build their
// timing from the result.
func (c Config) WithDefaults() Config {
	if c.HeartbeatPeriod <= 0 {
		c.HeartbeatPeriod = DefaultHeartbeatPeriod
	}
	if c.HopsPast < 0 {
		c.HopsPast = 0
	}
	if c.ReportPeriod <= 0 {
		c.ReportPeriod = c.HeartbeatPeriod
	}
	if c.CreationBackoff <= 0 {
		c.CreationBackoff = c.HeartbeatPeriod / 2
	}
	if c.FloodSuppress <= 0 {
		c.FloodSuppress = 1
	}
	return c
}

// receiveTimeout returns the member receive-timer duration with jitter
// drawn from r in [0, JitterFrac).
func (c Config) receiveTimeout(jitter float64) time.Duration {
	d := float64(c.HeartbeatPeriod) * ReceiveFactor * (1 + JitterFrac*jitter)
	return time.Duration(d)
}

// waitTimeout returns the non-member wait-timer duration.
func (c Config) waitTimeout() time.Duration {
	return time.Duration(float64(c.HeartbeatPeriod) * WaitFactor)
}

// Role describes a mote's relationship to a context type's group.
type Role int

// Roles a mote can hold for a context type.
const (
	RoleNone Role = iota + 1
	RoleMember
	RoleLeader
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleNone:
		return "none"
	case RoleMember:
		return "member"
	case RoleLeader:
		return "leader"
	default:
		return "invalid"
	}
}
