package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `
begin context tracker
    activation: magnetic_sensor_reading()
    location : avg(position) confidence=2, freshness=1s
    begin object reporter
        invocation: TIMER(5s)
        report_function() {
            send(pursuer, self:label, location);
        }
    end
end context
`

func writeSample(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.et")
	if err := os.WriteFile(path, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunGenerate(t *testing.T) {
	path := writeSample(t)
	out := filepath.Join(t.TempDir(), "gen.go")
	if err := run([]string{path}, "gen", out, false, false); err != nil {
		t.Fatal(err)
	}
	code, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(code), "package gen") || !strings.Contains(string(code), "BuildContexts") {
		t.Errorf("generated code malformed:\n%s", code)
	}
	for _, pkg := range []string{"123", "func", "a-b"} {
		bad := filepath.Join(t.TempDir(), "bad.go")
		if err := run([]string{path}, pkg, bad, false, false); err == nil {
			t.Errorf("-pkg %q: expected an invalid package name error", pkg)
		}
		if _, err := os.Stat(bad); !os.IsNotExist(err) {
			t.Errorf("-pkg %q: output file written despite the error", pkg)
		}
	}
}

func TestRunCheck(t *testing.T) {
	path := writeSample(t)
	if err := run([]string{path}, "main", "", true, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunCheckRejectsBadProgram(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.et")
	if err := os.WriteFile(path, []byte("begin context x activation: nope() end context"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{path}, "main", "", true, false); err == nil {
		t.Error("expected semantic error")
	}
}

func TestRunFormat(t *testing.T) {
	path := writeSample(t)
	out := filepath.Join(t.TempDir(), "fmt.et")
	if err := run([]string{path}, "main", out, false, true); err != nil {
		t.Fatal(err)
	}
	formatted, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(formatted), "begin context tracker") {
		t.Errorf("formatted output malformed:\n%s", formatted)
	}
}

func TestRunUsageErrors(t *testing.T) {
	if err := run(nil, "main", "", false, false); err == nil {
		t.Error("expected usage error with no arguments")
	}
	if err := run([]string{"/does/not/exist.et"}, "main", "", false, false); err == nil {
		t.Error("expected error for missing file")
	}
}
