package lint

import (
	"go/types"
	"strconv"
	"strings"
)

// Layering enforces the DESIGN.md dependency order from an explicit rules
// table: every package under LayerScope must appear in the table and may
// only import the module-local packages its entry lists. It also enforces
// construction restrictions (e.g. only the plant builder and the shard
// runtime may build a core.Controller directly, because they own the
// disjoint sub-space partitioning).
var Layering = &Analyzer{
	Name: "layering",
	Doc:  "module-local imports must follow the DESIGN.md dependency table",
	Run:  runLayering,
}

func runLayering(prog *Program, rules *Rules, report Reporter) {
	modPrefix := modulePrefix(rules.LayerScope)
	for _, pkg := range prog.Pkgs {
		entry, listed := rules.Layer[pkg.Path]
		inScope := rules.LayerScope != "" && strings.HasPrefix(pkg.Path, rules.LayerScope)
		if inScope && !listed {
			report(pkg.Files[0].Package,
				"package %s is missing from the layering rules table (internal/lint/rules.go)", pkg.Path)
			continue
		}
		if !listed {
			continue // packages outside the table (cmd/*, root, examples) are unrestricted
		}
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil || !strings.HasPrefix(path, modPrefix) {
					continue
				}
				if !matchPkg(entry, path) {
					report(imp.Pos(),
						"package %s may not import %s (extend the layering table if the dependency is intended)",
						pkg.Path, path)
				}
			}
		}
	}

	for _, rule := range rules.Construct {
		runConstructRule(prog, rule, report)
	}
}

// modulePrefix derives the module-local import prefix ("repro/") from the
// layer scope ("repro/internal/").
func modulePrefix(scope string) string {
	if i := strings.Index(scope, "/"); i >= 0 {
		return scope[:i+1]
	}
	return scope
}

// runConstructRule reports uses of the restricted function outside the
// allowed packages.
func runConstructRule(prog *Program, rule ConstructRule, report Reporter) {
	dot := strings.LastIndex(rule.Func, ".")
	if dot < 0 {
		return
	}
	fnPkg, fnName := rule.Func[:dot], rule.Func[dot+1:]
	for _, pkg := range prog.Pkgs {
		if pkg.Path == fnPkg || matchPkg(rule.Allowed, pkg.Path) {
			continue
		}
		for id, obj := range pkg.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil {
				continue
			}
			if fn.Pkg().Path() == fnPkg && fn.Name() == fnName {
				report(id.Pos(), "only %s may call %s directly",
					strings.Join(rule.Allowed, ", "), rule.Func)
			}
		}
	}
}
