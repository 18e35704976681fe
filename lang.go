package envirotrack

import "envirotrack/internal/lang"

// LangMessage is the payload produced by the declaration language's
// send()/MySend() builtin: the originating context label followed by the
// evaluated arguments.
type LangMessage = lang.Message

// CompileEnv binds the names an EnviroTrack program references to the
// runtime world: send() destinations, custom actions, and the group
// configuration applied to compiled context types.
type CompileEnv struct {
	// Destinations binds send() target identifiers ("pursuer") to motes.
	Destinations map[string]NodeID
	// Actions binds custom body-call names to implementations.
	Actions map[string]func(ctx *Ctx, args []any)
	// Logf receives log() output; nil discards it.
	Logf func(format string, args ...any)
	// Senses resolves activation-condition function names (defaults to
	// the builtin library).
	Senses *SenseRegistry
	// Aggs resolves aggregation function names (defaults to the builtin
	// library).
	Aggs *AggRegistry
	// Group configures group management for the compiled contexts.
	Group GroupConfig
	// AllowUnbound makes unknown destinations and actions compile to
	// no-ops instead of errors (syntax/semantic checking without runtime
	// bindings); their arguments are still checked.
	AllowUnbound bool
}

// CompileContexts parses and compiles an EnviroTrack program (the Section
// 4 declaration language) into context types ready for AttachContext —
// the run-time role of the paper's preprocessor.
func CompileContexts(src string, env CompileEnv) ([]ContextType, error) {
	actions := make(map[string]lang.ActionFunc, len(env.Actions))
	for name, fn := range env.Actions {
		actions[name] = lang.ActionFunc(fn)
	}
	return lang.CompileSource(src, lang.Env{
		Senses:       env.Senses,
		Aggs:         env.Aggs,
		Destinations: env.Destinations,
		Actions:      actions,
		Logf:         env.Logf,
		AllowUnbound: env.AllowUnbound,
		Group:        env.Group,
	})
}

// GenerateGo emits Go source against this package's API — the
// code-emitting role of the paper's preprocessor (which emitted NesC).
// The file declares BuildContexts(env CompileEnv), which runs
// CompileContexts on the embedded program, so it accepts exactly the
// programs CompileContexts accepts with AllowUnbound. pkg is the generated
// package name ("main" if empty); a name that is not a valid Go package
// name is an error.
func GenerateGo(src, pkg string) (string, error) {
	return lang.GenerateGo(src, pkg)
}

// FormatSource parses a program and renders it back in canonical form.
func FormatSource(src string) (string, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return "", err
	}
	return prog.Format(), nil
}
