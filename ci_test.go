package envirotrack

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsNameTests checks that every -run pattern in the CI
// workflow names a test that exists. go test -run prints "no tests to run"
// and exits 0 when a pattern matches nothing, so a step naming a deleted
// or renamed test would pass without running anything. Each top-level
// alternative of a pattern's first (top-level test) element must match
// the name of some Test function in a _test.go file of the repository;
// '^$', the idiom for running benchmarks only, is exempt.
func TestCIRunPatternsNameTests(t *testing.T) {
	workflow, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	names := testFuncNames(t)
	runArg := regexp.MustCompile(`-run[ =]('[^']*'|"[^"]*"|\S+)`)
	checked := 0
	for _, m := range runArg.FindAllStringSubmatch(string(workflow), -1) {
		pattern := strings.Trim(m[1], `'"`)
		if pattern == "^$" {
			continue
		}
		top := splitTopLevel(pattern, '/')[0]
		for _, alt := range splitTopLevel(top, '|') {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("-run %q: alternative %q: %v", pattern, alt, err)
				continue
			}
			checked++
			if !matchesAny(re, names) {
				t.Errorf("-run %q: alternative %q names no test function", pattern, alt)
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run pattern in the CI workflow")
	}
}

// testFuncNames returns the names of the Test functions declared in the
// repository's _test.go files.
func testFuncNames(t *testing.T) []string {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func (Test\w*)\(`)
	var names []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// splitTopLevel splits a go test -run pattern on sep outside parentheses,
// brackets and escapes, the way go test splits it into its per-level
// elements ('/') and a regexp into its alternatives ('|').
func splitTopLevel(pattern string, sep byte) []string {
	var parts []string
	depth, inClass, start := 0, false, 0
	for i := 0; i < len(pattern); i++ {
		switch c := pattern[i]; {
		case c == '\\':
			i++
		case inClass:
			inClass = c != ']'
		case c == '[':
			inClass = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == sep && depth == 0:
			parts = append(parts, pattern[start:i])
			start = i + 1
		}
	}
	return append(parts, pattern[start:])
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, name := range names {
		if re.MatchString(name) {
			return true
		}
	}
	return false
}
