package lang

import (
	"go/format"
	"strings"
	"testing"
)

// gofmtClean verifies emitted code is valid Go that gofmt leaves as is.
func gofmtClean(t *testing.T, src string) {
	t.Helper()
	formatted, err := format.Source([]byte(src))
	if err != nil {
		t.Fatalf("generated code does not parse: %v\n%s", err, src)
	}
	if string(formatted) != src {
		t.Errorf("generated code is not gofmt-clean:\n%s", src)
	}
}

func TestGeneratedGoIsValid(t *testing.T) {
	sources := map[string]string{
		"figure2": figure2,
		"full": "// A `backquoted` comment and a \"quoted\" one.\n" + `
begin context fire
    activation: temperature > 180 and fire_sensor_reading()
    deactivation: temperature < 100
    backend: passive
    heat : avg(temperature) confidence=5, freshness=3s
    where : avg(position) confidence=2, freshness=1s
    begin object alarm
        invocation: heat > 300 or heat < 0
        alarm_function() {
            log("alarm", heat);
            setstate("alarmed");
            send(base, self:label, where);
        }
    end
    begin object responder
        invocation: MESSAGE(9)
        on_query() {
            send(base, heat);
        }
    end
    begin object beacon
        invocation: TIMER(250ms)
        beep() {
        }
    end
end context
`,
	}
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			gen, err := GenerateGo(src, "gen")
			if err != nil {
				t.Fatal(err)
			}
			gofmtClean(t, gen)
			for _, want := range []string{
				"package gen\n",
				"func BuildContexts(env envirotrack.CompileEnv) ([]envirotrack.ContextType, error) {",
				"return envirotrack.CompileContexts(program, env)",
			} {
				if !strings.Contains(gen, want) {
					t.Errorf("generated code missing %q:\n%s", want, gen)
				}
			}
		})
	}
}

// TestGeneratedGoAcceptsCustomActions: a custom action is bound at run
// time through CompileEnv.Actions, so the semantic pass lets it through
// and so must code generation.
func TestGeneratedGoAcceptsCustomActions(t *testing.T) {
	src := `
begin context x
    activation: a > 1
    begin object o
        invocation: TIMER(1s)
        m() { custom(); }
    end
end context
`
	gen, err := GenerateGo(src, "gen")
	if err != nil {
		t.Fatalf("GenerateGo rejected a custom action the semantic pass accepts: %v", err)
	}
	gofmtClean(t, gen)
}

// TestGenerateGoRejectsWhatCompileRejects: code generation runs the
// compiler's semantic pass, so a program etpre -check rejects yields no
// Go.
func TestGenerateGoRejectsWhatCompileRejects(t *testing.T) {
	tests := []struct {
		name, src, want string
	}{
		{
			name: "unknown backend",
			src:  "begin context x activation: a > 1 backend: gossip end context",
			want: "unknown tracking backend",
		},
		{
			name: "unknown sensing function",
			src:  "begin context x activation: no_such_sensor() end context",
			want: "unknown sensing function",
		},
		{
			name: "duplicated variable",
			src: `begin context x activation: a > 1
				location : avg(position) confidence=1, freshness=1s
				location : avg(position) confidence=1, freshness=1s
				end context`,
			want: "declared twice",
		},
		{
			name: "duplicated context",
			src: `begin context x activation: a > 1 end context
				begin context x activation: a > 1 end context`,
			want: "declared twice",
		},
		{
			name: "condition on undeclared variable",
			src: `begin context x activation: a > 1
				begin object o invocation: ghost > 1 m() { } end end context`,
			want: "undeclared variable",
		},
		{
			name: "condition on position-valued variable",
			src: `begin context x activation: a > 1
				loc : avg(position) confidence=1, freshness=1s
				begin object o invocation: loc > 1 m() { } end end context`,
			want: "position-valued",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := CompileSource(tt.src, Env{AllowUnbound: true}); err == nil {
				t.Fatal("the semantic pass accepts the program")
			}
			gen, err := GenerateGo(tt.src, "gen")
			if err == nil {
				t.Fatalf("GenerateGo succeeded, want an error containing %q:\n%s", tt.want, gen)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error = %q, want it to contain %q", err, tt.want)
			}
		})
	}
}

func TestGeneratedGoDefaultPackage(t *testing.T) {
	gen, err := GenerateGo(figure2, "")
	if err != nil {
		t.Fatal(err)
	}
	gofmtClean(t, gen)
	if !strings.Contains(gen, "package main\n") {
		t.Errorf("default package should be main:\n%s", gen)
	}
}
