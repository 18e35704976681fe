// Command etpre is the EnviroTrack preprocessor: it parses a context
// description file (the Section 4 declaration language) and either emits
// Go source against the envirotrack API (the analogue of the paper's NesC
// emitter), checks the program, or pretty-prints it. The emitted file
// embeds the program and declares
//
//	func BuildContexts(env envirotrack.CompileEnv) ([]envirotrack.ContextType, error)
//
// which compiles it with envirotrack.CompileContexts. Generation runs the
// same semantic pass as -check, so it accepts exactly the programs -check
// accepts.
//
// Usage:
//
//	etpre program.et                  # emit Go to stdout
//	etpre -pkg tracker program.et     # choose the generated package name
//	etpre -o gen.go program.et        # write to a file
//	etpre -check program.et           # parse + semantic check only
//	etpre -fmt program.et             # canonical formatting to stdout
package main

import (
	"flag"
	"fmt"
	"os"

	"envirotrack"
)

func main() {
	var (
		pkg   = flag.String("pkg", "main", "generated package name")
		out   = flag.String("o", "", "output file (default stdout)")
		check = flag.Bool("check", false, "parse and semantically check only")
		doFmt = flag.Bool("fmt", false, "pretty-print the program instead of generating code")
	)
	flag.Parse()
	if err := run(flag.Args(), *pkg, *out, *check, *doFmt); err != nil {
		fmt.Fprintln(os.Stderr, "etpre:", err)
		os.Exit(1)
	}
}

func run(args []string, pkg, out string, check, doFmt bool) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: etpre [flags] <program.et>")
	}
	src, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}

	switch {
	case check:
		// Semantic check against the builtin registries; destinations and
		// actions are checked for form only (bindings are runtime concerns).
		_, err := envirotrack.CompileContexts(string(src), envirotrack.CompileEnv{AllowUnbound: true})
		if err != nil {
			return err
		}
		fmt.Println("ok")
		return nil
	case doFmt:
		formatted, err := envirotrack.FormatSource(string(src))
		if err != nil {
			return err
		}
		return emit(out, formatted)
	default:
		code, err := envirotrack.GenerateGo(string(src), pkg)
		if err != nil {
			return err
		}
		return emit(out, code)
	}
}

func emit(path, content string) error {
	if path == "" {
		fmt.Print(content)
		return nil
	}
	return os.WriteFile(path, []byte(content), 0o644)
}
