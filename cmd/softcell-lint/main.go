// softcell-lint loads and type-checks every package in the repository and
// runs the repo-specific invariant analyzers (lockcheck, lockorder,
// hotpath, atomicpub, determinism, layering, deadexport, errdrop, obscheck)
// over them. It prints one diagnostic per line as "file:line: [rule]
// message" and exits non-zero when anything is found, so `make verify`
// can gate on it. Built on the standard library only; works offline.
//
// Usage:
//
//	softcell-lint [-list] [-escape] [-json file] [packages]
//
// The package argument is accepted for familiarity ("./..."), but the tool
// always analyzes the whole module containing the working directory: the
// invariants are whole-program properties (layering, dead exports).
//
// -escape runs `go build -gcflags=-m ./...` and feeds the compiler's
// escape-analysis output to the hotpath analyzer, which cross-checks it
// against `// hotpath: no alloc` functions. -json writes the full machine-
// readable report (all findings, including suppressed ones, and every
// //lint:ignore directive) to the given file.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"repro/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	escape := flag.Bool("escape", false, "cross-check hotpath annotations against go build -gcflags=-m")
	jsonPath := flag.String("json", "", "write the machine-readable report to this file")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "softcell-lint:", err)
		os.Exit(2)
	}
	loader := lint.NewLoader(root, "repro")
	prog, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "softcell-lint:", err)
		os.Exit(2)
	}
	rules := lint.DefaultRules()
	if *escape {
		diags, err := compilerEscapes(root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "softcell-lint: -escape:", err)
			os.Exit(2)
		}
		rules.Escapes = diags
	}
	diags, report := lint.RunReport(prog, rules, lint.Analyzers())
	if *jsonPath != "" {
		report.Module = "repro"
		report.Relativize(root)
		data, err := report.JSON()
		if err == nil {
			err = os.WriteFile(*jsonPath, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "softcell-lint: -json:", err)
			os.Exit(2)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		wd = "" // diagnostics fall back to absolute paths
	}
	for _, d := range diags {
		name := d.Pos.Filename
		if wd != "" {
			if rel, err := filepath.Rel(wd, name); err == nil && !filepath.IsAbs(rel) {
				name = rel
			}
		}
		fmt.Printf("%s:%d: [%s] %s\n", name, d.Pos.Line, d.Rule, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "softcell-lint: %d finding(s) in %d packages\n", len(diags), len(prog.Pkgs))
		os.Exit(1)
	}
}

// compilerEscapes runs the compiler's escape analysis over the module and
// parses its diagnostics. -count=1 style cache-busting is unnecessary:
// -gcflags applies to every package, so the build runs uncached anyway.
func compilerEscapes(root string) ([]lint.EscapeDiag, error) {
	cmd := exec.Command("go", "build", "-gcflags=-m", "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m: %v\n%s", err, out)
	}
	return lint.ParseEscapes(root, out), nil
}

// moduleRoot walks up from the working directory to the enclosing go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}
