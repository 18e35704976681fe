// Package core implements the EnviroTrack middleware itself: context types,
// context labels, aggregate state variables, and tracking objects whose
// methods are invoked by the passage of time, by invocation conditions over
// aggregate state, or by the arrival of transport messages (Section 3.2).
// Object code executes on the sensor-group leader of the enclosing context;
// the distributed part of the computation (data collection, group
// maintenance) is delegated to the group and aggregate packages.
package core

import (
	"fmt"
	"time"

	"envirotrack/internal/aggregate"
	"envirotrack/internal/group"
	"envirotrack/internal/sensor"
	"envirotrack/internal/transport"
)

// PositionInput is the distinguished aggregation input meaning "the
// reporting mote's position" (as in `location : avg (position)`).
const PositionInput = "position"

// AggVarSpec declares one aggregate state variable of a context type.
type AggVarSpec struct {
	// Name is the variable name referenced by object code.
	Name string
	// Func is the aggregation function. For PositionInput inputs the
	// language layer resolves `avg` to the centroid.
	Func aggregate.Func
	// Input names the sensor channel aggregated, or PositionInput.
	Input string
	// Freshness is the QoS freshness horizon Le.
	Freshness time.Duration
	// CriticalMass is the QoS critical mass Ne (the "confidence"
	// attribute of Figure 2).
	CriticalMass int
}

// Validate reports an invalid variable declaration.
func (v AggVarSpec) Validate() error {
	if v.Name == "" {
		return fmt.Errorf("core: aggregate variable with empty name")
	}
	if v.Func.Apply == nil {
		return fmt.Errorf("core: variable %q has no aggregation function", v.Name)
	}
	if v.Input == "" {
		return fmt.Errorf("core: variable %q has no input", v.Name)
	}
	if v.Freshness <= 0 {
		return fmt.Errorf("core: variable %q needs positive freshness", v.Name)
	}
	return nil
}

// TriggerKind distinguishes how a method invocation was triggered.
type TriggerKind int

// Trigger kinds.
const (
	TriggerTimer TriggerKind = iota + 1
	TriggerCondition
	TriggerMessage
)

// String implements fmt.Stringer.
func (k TriggerKind) String() string {
	switch k {
	case TriggerTimer:
		return "timer"
	case TriggerCondition:
		return "condition"
	case TriggerMessage:
		return "message"
	default:
		return "unknown"
	}
}

// Trigger carries the cause of a method invocation into the method body.
type Trigger struct {
	Kind TriggerKind
	// Msg is set for TriggerMessage invocations.
	Msg *transport.Datagram
}

// MethodSpec declares one method of a tracking object.
type MethodSpec struct {
	// Name identifies the method ("report_function").
	Name string
	// Period, when positive, invokes the method every Period (TIMER(p)).
	Period time.Duration
	// Condition, when non-nil, gates invocation: for timer methods it is
	// checked at each tick; for condition-only methods (Period == 0) it is
	// checked on every sensing scan of the leader.
	Condition func(ctx *Ctx) bool
	// Port, when non-zero, invokes the method on message arrival at this
	// port of the enclosing context label.
	Port transport.PortID
	// Body is the method code, executed on the group leader.
	Body func(ctx *Ctx, trig Trigger)
}

// Validate reports an invalid method declaration.
func (m MethodSpec) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("core: method with empty name")
	}
	if m.Body == nil {
		return fmt.Errorf("core: method %q has no body", m.Name)
	}
	if m.Period <= 0 && m.Condition == nil && m.Port == 0 {
		return fmt.Errorf("core: method %q has no invocation (timer, condition, or port)", m.Name)
	}
	return nil
}

// ObjectSpec declares a tracking object attached to a context type.
type ObjectSpec struct {
	Name    string
	Methods []MethodSpec
}

// Validate reports an invalid object declaration.
func (o ObjectSpec) Validate() error {
	if o.Name == "" {
		return fmt.Errorf("core: object with empty name")
	}
	if len(o.Methods) == 0 {
		return fmt.Errorf("core: object %q has no methods", o.Name)
	}
	for _, m := range o.Methods {
		if err := m.Validate(); err != nil {
			return fmt.Errorf("object %q: %w", o.Name, err)
		}
	}
	return nil
}

// ContextType is the compiled form of a `begin context ... end context`
// declaration: everything the middleware needs to discover entities of
// this type, maintain their aggregate state, and run their attached
// objects.
type ContextType struct {
	// Name is the context type name ("tracker", "fire").
	Name string
	// Activation is the sensee() condition creating and maintaining
	// membership. Like every sensor.Func it must be a deterministic,
	// side-effect-free function of what it reads from the Reading: the
	// sensing sweep skips a mote whose scan an earlier scan of the type
	// proves quiet (see mote.Sweep), so it is not called on every mote
	// every period.
	Activation sensor.Func
	// Deactivation optionally overrides the default "inverse of
	// activation" leave condition. It is evaluated only on motes that are
	// sensing, under the same contract as Activation.
	Deactivation sensor.Func
	// Vars are the aggregate state variables.
	Vars []AggVarSpec
	// Objects are the attached tracking objects.
	Objects []ObjectSpec
	// Group overrides group-management parameters for this type. Non-leader
	// backends derive their protocol periods from the same knobs.
	Group group.Config
	// Backend names the tracking backend maintaining this type's labels
	// (see internal/track). Empty means the stack's default
	// (StackConfig.Backend, which falls back to the leader backend).
	Backend string
}

// Validate reports an invalid context type.
func (c ContextType) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("core: context type with empty name")
	}
	if c.Activation == nil {
		return fmt.Errorf("core: context type %q has no activation condition", c.Name)
	}
	seen := make(map[string]bool, len(c.Vars))
	for _, v := range c.Vars {
		if err := v.Validate(); err != nil {
			return fmt.Errorf("context %q: %w", c.Name, err)
		}
		if seen[v.Name] {
			return fmt.Errorf("core: context %q declares variable %q twice", c.Name, v.Name)
		}
		seen[v.Name] = true
	}
	for _, o := range c.Objects {
		if err := o.Validate(); err != nil {
			return fmt.Errorf("context %q: %w", c.Name, err)
		}
	}
	return nil
}

// Var returns the spec of a named aggregate variable.
func (c ContextType) Var(name string) (AggVarSpec, bool) {
	for _, v := range c.Vars {
		if v.Name == name {
			return v, true
		}
	}
	return AggVarSpec{}, false
}

// minFreshness returns the smallest freshness horizon across variables
// (used to derive the data-collection period Pe = Le - d), or 0 when the
// context has no variables.
func (c ContextType) minFreshness() time.Duration {
	var min time.Duration
	for _, v := range c.Vars {
		if min == 0 || v.Freshness < min {
			min = v.Freshness
		}
	}
	return min
}

// readingsPayload is the member report payload: one sample per aggregate
// variable, keyed by variable name.
type readingsPayload struct {
	Samples map[string]aggregate.Sample
}

// NodeMessage is the payload delivered when object code sends directly to
// a mote (the `MySend(pursuer, ...)` pattern: the base-station address is
// known at compile time).
type NodeMessage struct {
	From      int
	FromLabel group.Label
	Payload   any
}
