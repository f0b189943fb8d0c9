// Package lint is softcell-lint: a static-analysis framework, built on the
// standard library alone (go/parser, go/ast, go/types with the source
// importer), that loads and type-checks the whole repository and runs a set
// of repo-specific analyzers over it. The analyzers machine-check the
// invariants the concurrent control plane depends on — lock discipline,
// simulator determinism, package layering, no exported API that only tests
// call, and no silently dropped errors. See DESIGN.md "Static invariants".
//
// Diagnostics print as "file:line: [rule] message"; a finding can be
// suppressed with a same- or preceding-line comment
//
//	//lint:ignore <rule> <reason>
//
// where the reason is mandatory and an ignore that suppresses nothing is
// itself a finding, so stale escapes cannot accumulate.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Rule, d.Message)
}

// Reporter emits one finding for the analyzer it was handed to.
type Reporter func(pos token.Pos, format string, args ...any)

// Analyzer is one pluggable invariant check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(prog *Program, rules *Rules, report Reporter)
}

// Analyzers is the full production set, in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		LockCheck, LockOrder, HotPath, AtomicPub,
		Determinism, Layering, DeadExport, ErrDrop, ObsCheck,
	}
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos    token.Position
	rule   string
	reason string
	used   bool
}

// ignoreKey addresses directives by the source line they cover.
type ignoreKey struct {
	file string
	line int
}

// knownRuleNames is the set of rule names a directive may legally name:
// the production analyzers, whatever extra analyzers this run carries, and
// the "lint" pseudo-rule itself.
func knownRuleNames(analyzers []*Analyzer) map[string]bool {
	known := map[string]bool{"lint": true}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	return known
}

// collectIgnores parses every //lint:ignore directive in the program.
// A directive covers its own line and the line after it, so it works both
// as a trailing comment and as a comment line above the finding. Matching
// is analyzer-exact: a directive only ever suppresses findings of the rule
// it names, and naming an unknown analyzer is itself a finding (so a typo
// cannot silently consume anything). Malformed directives are reported
// immediately under the pseudo-rule "lint".
func collectIgnores(prog *Program, known map[string]bool, report func(Diagnostic)) map[ignoreKey][]*ignoreDirective {
	out := make(map[ignoreKey][]*ignoreDirective)
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
					if !ok {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					fields := strings.Fields(text)
					if len(fields) < 2 {
						report(Diagnostic{Pos: pos, Rule: "lint",
							Message: "malformed directive: want //lint:ignore <rule> <reason>"})
						continue
					}
					if !known[fields[0]] {
						report(Diagnostic{Pos: pos, Rule: "lint",
							Message: fmt.Sprintf("//lint:ignore names unknown analyzer %q", fields[0])})
						continue
					}
					d := &ignoreDirective{pos: pos, rule: fields[0], reason: strings.Join(fields[1:], " ")}
					for _, line := range []int{pos.Line, pos.Line + 1} {
						k := ignoreKey{pos.Filename, line}
						out[k] = append(out[k], d)
					}
				}
			}
		}
	}
	return out
}

// RunReport executes the analyzers over the program and returns the
// surviving diagnostics sorted by position — ignored findings dropped,
// unused or malformed ignore directives reported — plus a machine-readable
// report of everything that happened: every finding (including the
// suppressed ones, marked as such) and every ignore directive with its
// usage status.
func RunReport(prog *Program, rules *Rules, analyzers []*Analyzer) ([]Diagnostic, *Report) {
	var diags []Diagnostic
	ignores := collectIgnores(prog, knownRuleNames(analyzers), func(d Diagnostic) { diags = append(diags, d) })
	for _, a := range analyzers {
		name := a.Name
		report := func(pos token.Pos, format string, args ...any) {
			diags = append(diags, Diagnostic{
				Pos:     prog.Fset.Position(pos),
				Rule:    name,
				Message: fmt.Sprintf(format, args...),
			})
		}
		a.Run(prog, rules, report)
	}
	rep := &Report{Packages: len(prog.Pkgs)}
	for _, a := range analyzers {
		rep.Analyzers = append(rep.Analyzers, a.Name)
	}
	kept := diags[:0]
	for _, d := range diags {
		f := Finding{Analyzer: d.Rule, File: d.Pos.Filename, Line: d.Pos.Line, Message: d.Message}
		if d.Rule != "lint" {
			for _, ig := range ignores[ignoreKey{d.Pos.Filename, d.Pos.Line}] {
				if ig.rule == d.Rule {
					ig.used = true
					f.Suppressed = true
					f.IgnoreReason = ig.reason
				}
			}
		}
		rep.Findings = append(rep.Findings, f)
		if !f.Suppressed {
			kept = append(kept, d)
		}
	}
	diags = kept
	seen := make(map[*ignoreDirective]bool)
	for _, list := range ignores {
		for _, ig := range list {
			if seen[ig] {
				continue
			}
			seen[ig] = true
			rep.Ignores = append(rep.Ignores, IgnoreInfo{
				File: ig.pos.Filename, Line: ig.pos.Line,
				Analyzer: ig.rule, Reason: ig.reason, Used: ig.used,
			})
			if ig.used {
				continue
			}
			// Without compiler escape data, hotpath directives that exist to
			// suppress escape-analysis findings (reported at inlined call
			// sites) cannot be told apart from stale ones; the staleness
			// check for them runs only under -escape, which the make
			// lint/verify gate always passes.
			if ig.rule == HotPath.Name && len(rules.Escapes) == 0 {
				continue
			}
			d := Diagnostic{Pos: ig.pos, Rule: "lint",
				Message: fmt.Sprintf("unused //lint:ignore %s directive", ig.rule)}
			diags = append(diags, d)
			rep.Findings = append(rep.Findings, Finding{
				Analyzer: "lint", File: d.Pos.Filename, Line: d.Pos.Line, Message: d.Message,
			})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	rep.sort()
	return diags, rep
}

// matchPkg reports whether path matches any entry: exact, or prefix when
// the entry ends in "/".
func matchPkg(entries []string, path string) bool {
	for _, e := range entries {
		if e == path || (strings.HasSuffix(e, "/") && strings.HasPrefix(path, e)) {
			return true
		}
	}
	return false
}
