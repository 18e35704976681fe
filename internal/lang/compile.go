package lang

import (
	"fmt"
	"strings"

	"envirotrack/internal/aggregate"
	"envirotrack/internal/core"
	"envirotrack/internal/group"
	"envirotrack/internal/radio"
	"envirotrack/internal/sensor"
	"envirotrack/internal/track"
	"envirotrack/internal/transport"
)

// Message is the payload produced by the language's send()/MySend()
// builtin: the originating context label followed by the evaluated
// arguments (aggregate variable values, literals).
type Message struct {
	From   group.Label
	Values []any
}

// ActionFunc is a custom body action registered in the compile
// environment; it receives the enclosing context and the evaluated
// arguments.
type ActionFunc func(ctx *core.Ctx, args []any)

// Env provides the registries and bindings the compiler resolves names
// against — the compile-time world of the preprocessor.
type Env struct {
	// Senses resolves activation-condition function names.
	Senses *sensor.Registry
	// Aggs resolves aggregation function names.
	Aggs *aggregate.Registry
	// Destinations binds identifiers usable as send() targets ("pursuer")
	// to mote addresses, "known at compile time" as in Figure 2.
	Destinations map[string]radio.NodeID
	// Actions binds custom body-call names to implementations.
	Actions map[string]ActionFunc
	// Logf receives log() builtin output; nil discards it.
	Logf func(format string, args ...any)
	// AllowUnbound makes unknown send() destinations and actions compile
	// to no-ops instead of errors (used by the preprocessor's -check
	// mode, where runtime bindings are not yet known). Their arguments
	// are still checked.
	AllowUnbound bool
	// Group is the group-management configuration applied to compiled
	// context types.
	Group group.Config
}

func (e Env) withDefaults() Env {
	if e.Senses == nil {
		e.Senses = sensor.NewRegistry()
	}
	if e.Aggs == nil {
		e.Aggs = aggregate.NewRegistry()
	}
	return e
}

// CompileError is a semantic-analysis failure.
type CompileError struct {
	Pos Pos
	Msg string
}

// Error implements error.
func (e *CompileError) Error() string {
	return fmt.Sprintf("%s: %s", e.Pos, e.Msg)
}

func cerrf(pos Pos, format string, args ...any) error {
	return &CompileError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Compile performs semantic analysis on a parsed program and produces one
// core.ContextType per declaration, ready for Stack.AttachContext.
func Compile(prog *Program, env Env) ([]core.ContextType, error) {
	env = env.withDefaults()
	seen := make(map[string]bool, len(prog.Contexts))
	var out []core.ContextType
	for _, decl := range prog.Contexts {
		if seen[decl.Name] {
			return nil, cerrf(decl.Pos, "context %q declared twice", decl.Name)
		}
		seen[decl.Name] = true
		spec, err := compileContext(decl, env)
		if err != nil {
			return nil, err
		}
		out = append(out, spec)
	}
	return out, nil
}

// CompileSource parses and compiles in one step.
func CompileSource(src string, env Env) ([]core.ContextType, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(prog, env)
}

func compileContext(decl *ContextDecl, env Env) (core.ContextType, error) {
	spec := core.ContextType{Name: decl.Name, Group: env.Group}

	if decl.Backend != "" {
		if !track.Known(decl.Backend) {
			return core.ContextType{}, cerrf(decl.Pos, "unknown tracking backend %q (known: %s)",
				decl.Backend, strings.Join(track.Names(), ", "))
		}
		spec.Backend = decl.Backend
	}

	act, err := compileSense(decl.Activation, env)
	if err != nil {
		return core.ContextType{}, err
	}
	spec.Activation = act
	if decl.Deactivation != nil {
		deact, err := compileSense(decl.Deactivation, env)
		if err != nil {
			return core.ContextType{}, err
		}
		spec.Deactivation = deact
	}

	vars := make(map[string]*VarDecl, len(decl.Vars))
	for _, v := range decl.Vars {
		if vars[v.Name] != nil {
			return core.ContextType{}, cerrf(v.Pos, "variable %q declared twice", v.Name)
		}
		vars[v.Name] = v
		av, err := compileVar(v, env)
		if err != nil {
			return core.ContextType{}, err
		}
		spec.Vars = append(spec.Vars, av)
	}

	for _, obj := range decl.Objects {
		o := core.ObjectSpec{Name: obj.Name}
		for _, m := range obj.Methods {
			ms, err := compileMethod(m, vars, env)
			if err != nil {
				return core.ContextType{}, err
			}
			o.Methods = append(o.Methods, ms)
		}
		spec.Objects = append(spec.Objects, o)
	}
	if err := spec.Validate(); err != nil {
		return core.ContextType{}, cerrf(decl.Pos, "%v", err)
	}
	return spec, nil
}

// compileSense turns an activation/deactivation expression into a sensing
// predicate over local readings.
func compileSense(e Expr, env Env) (sensor.Func, error) {
	switch ex := e.(type) {
	case *CallExpr:
		fn, ok := env.Senses.Lookup(ex.Name)
		if !ok {
			return nil, cerrf(ex.Pos, "unknown sensing function %q (known: %s)",
				ex.Name, strings.Join(env.Senses.Names(), ", "))
		}
		return fn, nil
	case *CmpExpr:
		cmp, err := comparator(ex.Op)
		if err != nil {
			return nil, cerrf(ex.Pos, "%v", err)
		}
		name, threshold := ex.Name, ex.Value
		return func(rd sensor.Reading) bool {
			v, ok := rd.Value(name)
			return ok && cmp(v, threshold)
		}, nil
	case *NotExpr:
		inner, err := compileSense(ex.E, env)
		if err != nil {
			return nil, err
		}
		return func(rd sensor.Reading) bool { return !inner(rd) }, nil
	case *BinExpr:
		l, err := compileSense(ex.L, env)
		if err != nil {
			return nil, err
		}
		r, err := compileSense(ex.R, env)
		if err != nil {
			return nil, err
		}
		if ex.Op == "and" {
			return func(rd sensor.Reading) bool { return l(rd) && r(rd) }, nil
		}
		return func(rd sensor.Reading) bool { return l(rd) || r(rd) }, nil
	default:
		return nil, fmt.Errorf("lang: unsupported activation expression %T", e)
	}
}

// compileVar resolves one aggregate variable declaration. The spelling
// `avg(position)` resolves to the centroid, as the preprocessor maps every
// (function, sensor) pair to a concrete middleware call.
func compileVar(v *VarDecl, env Env) (core.AggVarSpec, error) {
	name := v.Func
	if v.Input == core.PositionInput && name == "avg" {
		name = "centroid"
	}
	fn, ok := env.Aggs.Lookup(name)
	if !ok {
		return core.AggVarSpec{}, cerrf(v.Pos, "unknown aggregation function %q (known: %s)",
			v.Func, strings.Join(env.Aggs.Names(), ", "))
	}
	if fn.PosInput && v.Input != core.PositionInput {
		return core.AggVarSpec{}, cerrf(v.Pos, "aggregation %q requires the position input", name)
	}
	if !fn.PosInput && v.Input == core.PositionInput {
		return core.AggVarSpec{}, cerrf(v.Pos, "aggregation %q cannot aggregate positions", name)
	}
	return core.AggVarSpec{
		Name:         v.Name,
		Func:         fn,
		Input:        v.Input,
		Freshness:    v.Freshness,
		CriticalMass: v.Confidence,
	}, nil
}

func compileMethod(m *MethodDecl, vars map[string]*VarDecl, env Env) (core.MethodSpec, error) {
	spec := core.MethodSpec{Name: m.Name}
	switch m.Invocation.Kind {
	case InvokeTimer:
		spec.Period = m.Invocation.Period
	case InvokeMessage:
		spec.Port = transport.PortID(m.Invocation.Port)
	case InvokeCondition:
		cond, err := compileCondition(m.Invocation.Cond, vars)
		if err != nil {
			return core.MethodSpec{}, err
		}
		spec.Condition = cond
	default:
		return core.MethodSpec{}, cerrf(m.Pos, "method %q has no invocation", m.Name)
	}

	body, err := compileBody(m, vars, env)
	if err != nil {
		return core.MethodSpec{}, err
	}
	spec.Body = body
	return spec, nil
}

// compileCondition turns an invocation condition into a predicate over the
// enclosing context's aggregate state. References must name declared
// scalar variables; a null (invalid) read makes the condition false, per
// the approximate-state semantics.
func compileCondition(e Expr, vars map[string]*VarDecl) (func(*core.Ctx) bool, error) {
	switch ex := e.(type) {
	case *CmpExpr:
		v, ok := vars[ex.Name]
		if !ok {
			return nil, cerrf(ex.Pos, "invocation condition references undeclared variable %q", ex.Name)
		}
		if v.Input == core.PositionInput {
			return nil, cerrf(ex.Pos, "variable %q is position-valued and cannot be compared to a number", ex.Name)
		}
		cmp, err := comparator(ex.Op)
		if err != nil {
			return nil, cerrf(ex.Pos, "%v", err)
		}
		name, threshold := ex.Name, ex.Value
		return func(ctx *core.Ctx) bool {
			val, ok := ctx.ReadScalar(name)
			return ok && cmp(val, threshold)
		}, nil
	case *NotExpr:
		inner, err := compileCondition(ex.E, vars)
		if err != nil {
			return nil, err
		}
		return func(ctx *core.Ctx) bool { return !inner(ctx) }, nil
	case *BinExpr:
		l, err := compileCondition(ex.L, vars)
		if err != nil {
			return nil, err
		}
		r, err := compileCondition(ex.R, vars)
		if err != nil {
			return nil, err
		}
		if ex.Op == "and" {
			return func(ctx *core.Ctx) bool { return l(ctx) && r(ctx) }, nil
		}
		return func(ctx *core.Ctx) bool { return l(ctx) || r(ctx) }, nil
	case *CallExpr:
		return nil, cerrf(ex.Pos, "sensing functions cannot appear in invocation conditions")
	default:
		return nil, fmt.Errorf("lang: unsupported invocation condition %T", e)
	}
}

func comparator(op string) (func(a, b float64) bool, error) {
	switch op {
	case ">":
		return func(a, b float64) bool { return a > b }, nil
	case "<":
		return func(a, b float64) bool { return a < b }, nil
	case ">=":
		return func(a, b float64) bool { return a >= b }, nil
	case "<=":
		return func(a, b float64) bool { return a <= b }, nil
	case "==":
		return func(a, b float64) bool { return a == b }, nil
	case "!=":
		return func(a, b float64) bool { return a != b }, nil
	default:
		return nil, fmt.Errorf("unknown comparison operator %q", op)
	}
}

// compiledStmt is one executable body statement.
type compiledStmt func(ctx *core.Ctx) bool

// compileBody compiles each statement; at run time statements execute in
// order, and a statement that cannot complete (a null aggregate read)
// aborts the remainder of the body — the tracking object only acts on
// confirmed state.
func compileBody(m *MethodDecl, vars map[string]*VarDecl, env Env) (func(*core.Ctx, core.Trigger), error) {
	stmts := make([]compiledStmt, 0, len(m.Body))
	for _, st := range m.Body {
		cs, err := compileStmt(st, vars, env)
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, cs)
	}
	return func(ctx *core.Ctx, _ core.Trigger) {
		for _, st := range stmts {
			if !st(ctx) {
				return
			}
		}
	}, nil
}

func compileStmt(st *CallStmt, vars map[string]*VarDecl, env Env) (compiledStmt, error) {
	switch strings.ToLower(st.Name) {
	case "send", "mysend":
		if len(st.Args) < 1 {
			return nil, cerrf(st.Pos, "%s needs a destination argument", st.Name)
		}
		dest := st.Args[0]
		if dest.Kind != ArgIdent {
			return nil, cerrf(st.Pos, "%s destination must be an identifier", st.Name)
		}
		evalArgs, err := compileArgs(st.Args[1:], st.Pos, vars)
		if err != nil {
			return nil, err
		}
		node, ok := env.Destinations[dest.Text]
		if !ok {
			if env.AllowUnbound {
				return func(*core.Ctx) bool { return true }, nil
			}
			return nil, cerrf(st.Pos, "unknown destination %q (bind it in the compile environment)", dest.Text)
		}
		return func(ctx *core.Ctx) bool {
			vals, ok := evalArgs(ctx)
			if !ok {
				return false
			}
			ctx.SendNode(node, Message{From: ctx.Label(), Values: vals})
			return true
		}, nil
	case "log":
		evalArgs, err := compileArgs(st.Args, st.Pos, vars)
		if err != nil {
			return nil, err
		}
		logf := env.Logf
		return func(ctx *core.Ctx) bool {
			vals, ok := evalArgs(ctx)
			if !ok {
				return false
			}
			if logf != nil {
				logf("[%s @%v] %v", ctx.Label(), ctx.Now(), vals)
			}
			return true
		}, nil
	case "setstate":
		evalArgs, err := compileArgs(st.Args, st.Pos, vars)
		if err != nil {
			return nil, err
		}
		return func(ctx *core.Ctx) bool {
			vals, ok := evalArgs(ctx)
			if !ok {
				return false
			}
			ctx.SetState([]byte(fmt.Sprint(vals...)))
			return true
		}, nil
	default:
		evalArgs, err := compileArgs(st.Args, st.Pos, vars)
		if err != nil {
			return nil, err
		}
		action, ok := env.Actions[st.Name]
		if !ok {
			if env.AllowUnbound {
				return func(*core.Ctx) bool { return true }, nil
			}
			return nil, cerrf(st.Pos, "unknown action %q (builtins: send, log, setstate)", st.Name)
		}
		return func(ctx *core.Ctx) bool {
			vals, ok := evalArgs(ctx)
			if !ok {
				return false
			}
			action(ctx, vals)
			return true
		}, nil
	}
}

// compileArgs builds an evaluator for statement arguments. Identifiers
// must name declared aggregate variables; their reads may be null at run
// time, which aborts the statement (ok=false).
func compileArgs(args []Arg, pos Pos, vars map[string]*VarDecl) (func(*core.Ctx) ([]any, bool), error) {
	type evalArg func(*core.Ctx) (any, bool)
	evals := make([]evalArg, 0, len(args))
	for _, a := range args {
		switch a.Kind {
		case ArgSelfLabel:
			evals = append(evals, func(ctx *core.Ctx) (any, bool) { return ctx.Label(), true })
		case ArgNumber:
			v := a.Num
			evals = append(evals, func(*core.Ctx) (any, bool) { return v, true })
		case ArgString:
			s := a.Text
			evals = append(evals, func(*core.Ctx) (any, bool) { return s, true })
		case ArgIdent:
			if _, ok := vars[a.Text]; !ok {
				return nil, cerrf(pos, "argument references undeclared variable %q", a.Text)
			}
			name := a.Text
			evals = append(evals, func(ctx *core.Ctx) (any, bool) {
				v, ok := ctx.Read(name)
				if !ok {
					return nil, false
				}
				if v.IsPos {
					return v.Pos, true
				}
				return v.Scalar, true
			})
		default:
			return nil, cerrf(pos, "unsupported argument kind")
		}
	}
	return func(ctx *core.Ctx) ([]any, bool) {
		out := make([]any, len(evals))
		for i, ev := range evals {
			v, ok := ev(ctx)
			if !ok {
				return nil, false
			}
			out[i] = v
		}
		return out, true
	}, nil
}
