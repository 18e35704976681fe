package main

import (
	"testing"

	"envirotrack"
)

// FuzzPreprocess drives the three preprocessor stages etpre exposes
// (-check semantic compilation, -fmt canonical formatting, and Go code
// generation) over arbitrary input. Malformed programs — unterminated
// begin context blocks above all — must come back as errors, never
// panics, and code generation must accept exactly the programs -check
// accepts.
func FuzzPreprocess(f *testing.F) {
	seeds := []string{
		"",
		"begin context tracker\n    activation: magnetic_sensor_reading()\n    location : avg(position) confidence=2, freshness=1s\n    begin object reporter\n        invocation: TIMER(5s)\n        report_function() {\n            send(pursuer, self:label, location);\n        }\n    end\nend context\n",
		"begin context x",
		"begin context x\nactivation: unknown_sense()\nend context",
		"begin context x\nlocation : bogus_agg(position)\nend context",
		"begin context x\nbegin object o\ninvocation: CHANGE(location)\nm() { set_timer(1s); }\nend\nend context",
		"end context",
		"begin context a\nend context\nbegin context a\nend context",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	env := envirotrack.CompileEnv{AllowUnbound: true}
	f.Fuzz(func(t *testing.T, src string) {
		// -check path: permissive bindings, so only syntactic/semantic
		// errors in the program itself surface.
		_, compileErr := envirotrack.CompileContexts(src, env)
		// Code generation runs the same semantic pass: it succeeds exactly
		// when -check does.
		_, genErr := envirotrack.GenerateGo(src, "fuzz")
		if (compileErr == nil) != (genErr == nil) {
			t.Fatalf("CompileContexts error %v but GenerateGo error %v\n%s", compileErr, genErr, src)
		}
		if compileErr != nil {
			return
		}
		// A compilable program must survive -fmt.
		if _, err := envirotrack.FormatSource(src); err != nil {
			t.Fatalf("compilable program fails FormatSource: %v\n%s", err, src)
		}
	})
}
