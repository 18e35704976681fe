package envirotrack

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

const trackerSource = `
begin context tracker
    activation: magnetic_sensor_reading()
    location : avg(position) confidence=2, freshness=1s
    begin object reporter
        invocation: TIMER(1s)
        report_function() {
            send(pursuer, self:label, location);
        }
    end
end context
`

// TestCompiledProgramTracksEndToEnd runs a program written in the
// declaration language through the full simulated network: the paper's
// complete pipeline (source -> preprocessor -> middleware -> tracking).
func TestCompiledProgramTracksEndToEnd(t *testing.T) {
	specs, err := CompileContexts(trackerSource, CompileEnv{
		Destinations: map[string]NodeID{"pursuer": 100},
		Group: GroupConfig{
			HeartbeatPeriod: 250 * time.Millisecond,
			HopsPast:        1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 {
		t.Fatalf("specs = %d", len(specs))
	}

	n := buildNet(t)
	if err := n.AttachContextAll(specs[0]); err != nil {
		t.Fatal(err)
	}
	pursuer, err := n.AddMote(100, Pt(7, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	var msgs []LangMessage
	pursuer.OnMessage(func(nm NodeMessage) {
		if m, ok := nm.Payload.(LangMessage); ok {
			msgs = append(msgs, m)
		}
	})
	n.AddTarget(&Target{
		Name: "tank", Kind: "vehicle",
		Traj: Stationary{At: Pt(3.5, 1)}, SignatureRadius: 1.6,
	})
	if err := n.Run(8 * time.Second); err != nil {
		t.Fatal(err)
	}

	if len(msgs) == 0 {
		t.Fatal("compiled program produced no reports")
	}
	for _, m := range msgs {
		if m.From == "" {
			t.Error("message missing source label")
		}
		// Values: [self:label, location].
		if len(m.Values) != 2 {
			t.Fatalf("values = %v", m.Values)
		}
		if _, ok := m.Values[0].(Label); !ok {
			t.Errorf("first value = %T, want Label", m.Values[0])
		}
		loc, ok := m.Values[1].(Point)
		if !ok {
			t.Fatalf("second value = %T, want Point", m.Values[1])
		}
		if loc.Dist(Pt(3.5, 1)) > 1.2 {
			t.Errorf("reported location %v far from target", loc)
		}
	}
}

func TestCompiledConditionActionAndLog(t *testing.T) {
	var logged []string
	alarms := 0
	src := `
begin context hotspot
    activation: magnetic > 0.1
    strength : max(magnetic) confidence=1, freshness=1s
    begin object alarm
        invocation: strength > 0.2
        alarm_function() {
            raise(strength);
            log("alarm", strength);
        }
    end
end context
`
	specs, err := CompileContexts(src, CompileEnv{
		Actions: map[string]func(*Ctx, []any){
			"raise": func(_ *Ctx, args []any) { alarms++ },
		},
		Logf: func(format string, args ...any) {
			logged = append(logged, format)
		},
		Group: GroupConfig{HeartbeatPeriod: 250 * time.Millisecond, HopsPast: 1},
	})
	if err != nil {
		t.Fatal(err)
	}

	n := buildNet(t)
	if err := n.AttachContextAll(specs[0]); err != nil {
		t.Fatal(err)
	}
	n.AddTarget(&Target{
		Name: "tank", Kind: "vehicle",
		Traj: Stationary{At: Pt(3.5, 1)}, SignatureRadius: 1.6, Amplitude: 10,
	})
	if err := n.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if alarms == 0 {
		t.Error("custom action never invoked")
	}
	if len(logged) == 0 {
		t.Error("log() produced no output")
	}
}

func TestGenerateGoPublic(t *testing.T) {
	src, err := GenerateGo(trackerSource, "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "package main") {
		t.Error("default package should be main")
	}
	if !strings.Contains(src, "BuildContexts") {
		t.Error("missing BuildContexts")
	}
}

// generatedProgram returns the source embedded in GenerateGo's output:
// the value of its program const.
func generatedProgram(t *testing.T, code string) string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "gen.go", code, 0)
	if err != nil {
		t.Fatalf("generated code does not parse: %v\n%s", err, code)
	}
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if len(vs.Names) != 1 || vs.Names[0].Name != "program" || len(vs.Values) != 1 {
				continue
			}
			lit, ok := vs.Values[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				t.Fatalf("program const is not a string literal:\n%s", code)
			}
			src, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			return src
		}
	}
	t.Fatalf("generated code declares no program const:\n%s", code)
	return ""
}

// TestGeneratedGoCarriesTheProgram: the generated file embeds the source
// byte for byte, and compiling that embedded copy keeps every clause —
// the backend one included.
func TestGeneratedGoCarriesTheProgram(t *testing.T) {
	read := func(name string) string {
		raw, err := os.ReadFile("examples/programs/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	const activation = "    activation: magnetic_sensor_reading()\n"
	tracker := read("tracker.et")
	if !strings.Contains(tracker, activation) {
		t.Fatalf("tracker.et has no %q line", activation)
	}
	passive := strings.Replace(tracker, activation, activation+"    backend: passive\n", 1)
	embedded := map[string]string{}
	for name, src := range map[string]string{"tracker.et+passive": passive, "fire.et": read("fire.et")} {
		code, err := GenerateGo(src, "gen")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		embedded[name] = generatedProgram(t, code)
		if embedded[name] != src {
			t.Errorf("%s: embedded program differs from the input:\n%q\nwant\n%q", name, embedded[name], src)
		}
	}
	specs, err := CompileContexts(embedded["tracker.et+passive"], CompileEnv{
		Destinations: map[string]NodeID{"pursuer": 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].Backend != "passive" {
		t.Errorf("compiled embedded tracker = %+v, want one passive context", specs)
	}
}

func TestFormatSourceRoundTrip(t *testing.T) {
	formatted, err := FormatSource(trackerSource)
	if err != nil {
		t.Fatal(err)
	}
	again, err := FormatSource(formatted)
	if err != nil {
		t.Fatal(err)
	}
	if formatted != again {
		t.Error("FormatSource not idempotent")
	}
}

func TestCompileContextsError(t *testing.T) {
	if _, err := CompileContexts("begin context x activation: nope() end context", CompileEnv{}); err == nil {
		t.Error("expected compile error for unknown sensing function")
	}
}
