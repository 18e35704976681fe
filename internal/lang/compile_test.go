package lang

import (
	"strings"
	"testing"
	"time"

	"envirotrack/internal/core"
	"envirotrack/internal/radio"
	"envirotrack/internal/sensor"
)

func compileOne(t *testing.T, src string, env Env) core.ContextType {
	t.Helper()
	specs, err := CompileSource(src, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 {
		t.Fatalf("specs = %d, want 1", len(specs))
	}
	return specs[0]
}

func TestCompileFigure2(t *testing.T) {
	spec := compileOne(t, figure2, Env{
		Destinations: map[string]radio.NodeID{"pursuer": 100},
	})
	if spec.Name != "tracker" {
		t.Errorf("name = %q", spec.Name)
	}
	if spec.Activation == nil {
		t.Fatal("activation not compiled")
	}
	// The compiled activation is the registry's magnetic function.
	fire := sensor.Reading{Values: map[string]float64{"magnetic_detect": 1}}
	quiet := sensor.Reading{Values: map[string]float64{"magnetic_detect": 0}}
	if !spec.Activation(fire) || spec.Activation(quiet) {
		t.Error("compiled activation misbehaves")
	}
	// avg(position) resolved to the centroid.
	v, ok := spec.Var("location")
	if !ok {
		t.Fatal("location var missing")
	}
	if v.Func.Name != "centroid" || !v.Func.PosInput {
		t.Errorf("resolved func = %+v", v.Func)
	}
	if v.CriticalMass != 2 || v.Freshness != time.Second {
		t.Errorf("QoS = %d/%v", v.CriticalMass, v.Freshness)
	}
	if len(spec.Objects) != 1 || len(spec.Objects[0].Methods) != 1 {
		t.Fatalf("objects = %+v", spec.Objects)
	}
	m := spec.Objects[0].Methods[0]
	if m.Period != 5*time.Second || m.Body == nil {
		t.Errorf("method = %+v", m)
	}
}

func TestCompileChannelComparisonActivation(t *testing.T) {
	src := `
begin context fire
    activation: temperature > 180 and light > 0.5
    heat : avg(temperature) confidence=2, freshness=2s
end context
`
	spec := compileOne(t, src, Env{})
	hot := sensor.Reading{Values: map[string]float64{"temperature": 200, "light": 1}}
	cold := sensor.Reading{Values: map[string]float64{"temperature": 20, "light": 1}}
	dark := sensor.Reading{Values: map[string]float64{"temperature": 200, "light": 0}}
	if !spec.Activation(hot) {
		t.Error("hot+bright should activate")
	}
	if spec.Activation(cold) || spec.Activation(dark) {
		t.Error("cold or dark should not activate")
	}
}

func TestCompileNotOrExpressions(t *testing.T) {
	src := `
begin context x
    activation: not a > 1 or b > 5
end context
`
	spec := compileOne(t, src, Env{})
	mk := func(a, b float64) sensor.Reading {
		return sensor.Reading{Values: map[string]float64{"a": a, "b": b}}
	}
	if !spec.Activation(mk(0, 0)) { // not(a>1) = true
		t.Error("not-branch failed")
	}
	if spec.Activation(mk(2, 0)) { // not(a>1)=false, b>5=false
		t.Error("false or false should be false")
	}
	if !spec.Activation(mk(2, 6)) { // b>5
		t.Error("or-branch failed")
	}
}

func TestCompileMissingChannelIsFalse(t *testing.T) {
	src := `
begin context x
    activation: missing > 1
end context
`
	spec := compileOne(t, src, Env{})
	if spec.Activation(sensor.Reading{Values: map[string]float64{}}) {
		t.Error("comparison on a missing channel must be false")
	}
}

func TestCompileErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		env  Env
		want string
	}{
		{
			name: "unknown sensing function",
			src:  "begin context x activation: nope() end context",
			want: "unknown sensing function",
		},
		{
			name: "unknown aggregation",
			src:  "begin context x activation: a > 1 v : median(a) confidence=1, freshness=1s end context",
			want: "unknown aggregation",
		},
		{
			name: "position into scalar agg",
			src:  "begin context x activation: a > 1 v : sum(position) confidence=1, freshness=1s end context",
			want: "cannot aggregate positions",
		},
		{
			name: "scalar into centroid",
			src:  "begin context x activation: a > 1 v : centroid(a) confidence=1, freshness=1s end context",
			want: "requires the position input",
		},
		{
			name: "undeclared variable in condition",
			src: `begin context x activation: a > 1
				begin object o invocation: ghost > 1 m() { } end end context`,
			want: "undeclared variable",
		},
		{
			name: "position variable compared",
			src: `begin context x activation: a > 1
				loc : avg(position) confidence=1, freshness=1s
				begin object o invocation: loc > 1 m() { } end end context`,
			want: "position-valued",
		},
		{
			name: "unknown destination",
			src: `begin context x activation: a > 1
				begin object o invocation: TIMER(1s) m() { send(mars); } end end context`,
			want: "unknown destination",
		},
		{
			name: "unknown action",
			src: `begin context x activation: a > 1
				begin object o invocation: TIMER(1s) m() { explode(); } end end context`,
			want: "unknown action",
		},
		{
			name: "undeclared variable argument",
			src: `begin context x activation: a > 1
				begin object o invocation: TIMER(1s) m() { log(ghost); } end end context`,
			want: "undeclared variable",
		},
		{
			name: "duplicate context",
			src: `begin context x activation: a > 1 end context
				begin context x activation: a > 1 end context`,
			want: "declared twice",
		},
		{
			name: "duplicate variable",
			src: `begin context x activation: a > 1
				v : avg(a) confidence=1, freshness=1s
				v : avg(b) confidence=1, freshness=1s
				end context`,
			want: "declared twice",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := CompileSource(tt.src, tt.env)
			if err == nil {
				t.Fatalf("compile succeeded, want error containing %q", tt.want)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error = %q, want it to contain %q", err, tt.want)
			}
		})
	}
}

func TestCompileConditionSemantics(t *testing.T) {
	src := `
begin context x
    activation: a > 1
    level : max(a) confidence=1, freshness=1s
    begin object o
        invocation: level >= 10 and level < 20
        m() { }
    end
end context
`
	spec := compileOne(t, src, Env{})
	cond := spec.Objects[0].Methods[0].Condition
	if cond == nil {
		t.Fatal("condition not compiled")
	}
	// A nil Ctx read path: condition on a context with no windows reads
	// invalid and must be false, not panic.
	if cond(nilCtx(t)) {
		t.Error("condition with null reads should be false")
	}
}

// nilCtx builds a Ctx with no aggregate windows (static-object style).
func nilCtx(t *testing.T) *core.Ctx {
	t.Helper()
	return &core.Ctx{}
}

func TestGenerateGoCompiles(t *testing.T) {
	src, err := GenerateGo(figure2, "generated")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "package generated\n") {
		t.Errorf("generated code names the wrong package:\n%s", src)
	}
	for _, pkg := range []string{"123", "func", "a-b", "_", "my pkg"} {
		if _, err := GenerateGo(figure2, pkg); err == nil {
			t.Errorf("GenerateGo(figure2, %q) succeeded; want an invalid package name error", pkg)
		}
	}
}

func TestComparatorSemantics(t *testing.T) {
	tests := []struct {
		op   string
		a, b float64
		want bool
	}{
		{">", 2, 1, true},
		{">", 1, 2, false},
		{"<", 1, 2, true},
		{"<", 2, 1, false},
		{">=", 2, 2, true},
		{">=", 1, 2, false},
		{"<=", 2, 2, true},
		{"<=", 3, 2, false},
		{"==", 2, 2, true},
		{"==", 2, 3, false},
		{"!=", 2, 3, true},
		{"!=", 2, 2, false},
	}
	for _, tt := range tests {
		cmp, err := comparator(tt.op)
		if err != nil {
			t.Fatalf("comparator(%q): %v", tt.op, err)
		}
		if got := cmp(tt.a, tt.b); got != tt.want {
			t.Errorf("%v %s %v = %v, want %v", tt.a, tt.op, tt.b, got, tt.want)
		}
	}
	if _, err := comparator("~"); err == nil {
		t.Error("expected error for unknown operator")
	}
}

func TestCompileAllComparatorOpsInActivation(t *testing.T) {
	for _, op := range []string{">", "<", ">=", "<=", "==", "!="} {
		src := "begin context x activation: a " + op + " 5 end context"
		if _, err := CompileSource(src, Env{}); err != nil {
			t.Errorf("op %q: %v", op, err)
		}
	}
}

func TestCompileSetStateAndCustomAction(t *testing.T) {
	calls := 0
	src := `
begin context x
    activation: a > 1
    level : max(a) confidence=1, freshness=1s
    begin object o
        invocation: TIMER(1s)
        m() {
            setstate("checkpoint");
            custom(level, "tag", 3);
        }
    end
end context
`
	specs, err := CompileSource(src, Env{
		Actions: map[string]ActionFunc{
			"custom": func(_ *core.Ctx, args []any) { calls = len(args) },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs[0].Objects[0].Methods) != 1 {
		t.Fatal("method missing")
	}
	// Executing the body against a window-less context aborts at the
	// variable read without invoking the action (null-read semantics).
	specs[0].Objects[0].Methods[0].Body(nilCtx(t), core.Trigger{})
	if calls != 0 {
		t.Error("action ran despite a null aggregate read")
	}
}

func TestCompileAllowUnbound(t *testing.T) {
	src := `
begin context x
    activation: a > 1
    begin object o
        invocation: TIMER(1s)
        m() { send(mars); explode(); }
    end
end context
`
	if _, err := CompileSource(src, Env{AllowUnbound: true}); err != nil {
		t.Fatalf("AllowUnbound compile failed: %v", err)
	}
	if _, err := CompileSource(src, Env{}); err == nil {
		t.Error("strict compile should fail")
	}
	// An unbound call's arguments are still checked: binding the name
	// later cannot make an undeclared variable resolve.
	for _, body := range []string{"send(mars, ghost);", "explode(ghost);"} {
		bad := strings.Replace(src, "send(mars); explode();", body, 1)
		_, err := CompileSource(bad, Env{AllowUnbound: true})
		if err == nil || !strings.Contains(err.Error(), `undeclared variable "ghost"`) {
			t.Errorf("%s: err = %v, want undeclared variable", body, err)
		}
	}
}

func TestCompileBackendClause(t *testing.T) {
	src := `
begin context tracker
    activation: magnetic_sensor_reading()
    backend: passive
    location : avg(position) confidence=2, freshness=1s
    begin object reporter
        invocation: TIMER(5s)
        report_function() {
            send(pursuer, self:label, location);
        }
    end
end context
`
	spec := compileOne(t, src, Env{
		Destinations: map[string]radio.NodeID{"pursuer": 100},
	})
	if spec.Backend != "passive" {
		t.Errorf("spec backend = %q, want passive", spec.Backend)
	}
}

func TestCompileUnknownBackend(t *testing.T) {
	src := `
begin context tracker
    activation: magnetic_sensor_reading()
    backend: quantum
    location : avg(position) confidence=2, freshness=1s
end context
`
	_, err := CompileSource(src, Env{})
	if err == nil || !strings.Contains(err.Error(), `unknown tracking backend "quantum"`) {
		t.Errorf("err = %v, want unknown tracking backend", err)
	}
}
