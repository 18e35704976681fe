package lang

import (
	"strings"
	"testing"
)

// FuzzParse asserts the parser's total-function contract: any input —
// malformed begin/end nesting, truncated QoS clauses, stray bytes — must
// return an error or a program, never panic. When a program parses, the
// downstream preprocessor stages (formatting, code generation) and the
// format/reparse round trip must hold up too.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		figure2,
		"begin context",
		"begin context x\nend",
		"begin context x\nactivation: f()\nend context",
		"begin context x\nactivation: f(\nend context",
		"begin context x\nactivation: f() and (g() or not h())\nend context",
		"begin context x\nlocation : avg(position) confidence=2, freshness=1s\nend context",
		"begin context x\nlocation : avg(position) confidence=, freshness=\nend context",
		"begin context x\nbegin object o\ninvocation: TIMER(5s)\nm() { send(a, b); }\nend\nend context",
		"begin object o\nend",
		"begin context x\nbegin object o\nm() { send(; }\nend\nend context",
		"begin context \xff\xfe\nend context",
		"# comment only\n",
		strings.Repeat("begin context x\n", 50),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			if prog != nil {
				t.Fatalf("Parse returned both a program and error %v", err)
			}
			return
		}
		if prog == nil {
			t.Fatal("Parse returned nil program and nil error")
		}
		// The stages the preprocessor runs on a parsed program must not
		// panic either; semantic rejection is fine.
		_, _ = GenerateGo(src, "fuzz")
		formatted := prog.Format()
		// Canonical form must stay parseable: Format output is what -fmt
		// writes back to the user's file.
		if _, err := Parse(formatted); err != nil {
			t.Fatalf("formatted program does not re-parse: %v\n--- formatted ---\n%s", err, formatted)
		}
	})
}
