package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// LockCheck enforces the "// guarded by <mu>" field annotation: within the
// configured packages, a guarded field may only be read or written by a
// function that visibly acquires the corresponding mutex on the same base
// expression (x.mu.Lock() / x.mu.RLock() ... then x.field), or that is
// annotated "// caller holds <mu>" in its doc comment. It also applies a
// self-deadlock heuristic: a function that acquires (or is documented to
// hold) a receiver's mutex must not call another method of that same
// receiver which acquires the same mutex again.
//
// Acquisition order — the "lock ordering: mu1, mu2" struct comments — is
// lockorder's job, not this analyzer's.
//
// The check is a heuristic, deliberately flow-insensitive: a Lock anywhere
// in the function body (including one inside a closure) counts as held.
// That keeps it quiet on correct code and loud on the bug class that
// matters — a field access with no lock acquisition in sight.
var LockCheck = &Analyzer{
	Name: "lockcheck",
	Doc:  "guarded-field accesses must hold the annotated mutex; locked methods must not re-lock",
	Run:  runLockCheck,
}

var (
	guardedRe     = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)
	callerHoldsRe = regexp.MustCompile(`caller holds ([A-Za-z_][A-Za-z0-9_]*)`)
)

// guardInfo records one annotated field.
type guardInfo struct {
	mu         string // name of the mutex field in the same struct
	structName string
}

func runLockCheck(prog *Program, rules *Rules, report Reporter) {
	guarded := make(map[*types.Var]guardInfo)
	// lockingMethods: methods that acquire <receiver>.<mu>; value is the
	// mutex field name. Filled in a first sweep so the self-deadlock pass
	// can resolve callees across files.
	lockingMethods := make(map[*types.Func]string)

	// Pass 1: collect annotations (and validate them) in the lock packages.
	for _, pkg := range prog.Pkgs {
		if !matchPkg(rules.LockPkgs, pkg.Path) {
			continue
		}
		collectGuards(pkg, guarded, report)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil || fn.Recv == nil {
					continue
				}
				recv := receiverName(fn)
				if recv == "" {
					continue
				}
				obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				for mu := range lockedMuNames(fn.Body, recv) {
					lockingMethods[obj] = mu
				}
			}
		}
	}
	if len(guarded) == 0 {
		return
	}

	// Pass 2: check every function in every package (guarded fields may be
	// exported and touched from anywhere in the tree).
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				checkFunc(pkg, fn, guarded, lockingMethods, report)
			}
		}
	}
}

// collectGuards records every "// guarded by mu" field annotation of a
// package, validating that the named mutex exists in the same struct.
func collectGuards(pkg *Package, guarded map[*types.Var]guardInfo, report Reporter) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu, ok := guardAnnotation(field)
				if !ok {
					continue
				}
				if !structHasMutex(pkg, st, mu) {
					report(field.Pos(), "field annotated 'guarded by %s' but %s.%s is not a sync mutex",
						mu, ts.Name.Name, mu)
					continue
				}
				for _, name := range field.Names {
					if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
						guarded[v] = guardInfo{mu: mu, structName: ts.Name.Name}
					}
				}
			}
			return true
		})
	}
}

// guardAnnotation extracts the mutex name from a field's doc or trailing
// comment.
func guardAnnotation(field *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1], true
		}
	}
	return "", false
}

// structHasMutex reports whether the struct declares a field named mu whose
// type is a sync mutex.
func structHasMutex(pkg *Package, st *ast.StructType, mu string) bool {
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if name.Name != mu {
				continue
			}
			tv, ok := pkg.Info.Types[field.Type]
			if !ok {
				return false
			}
			return isSyncMutex(tv.Type)
		}
	}
	return false
}

func isSyncMutex(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() != "sync" {
		return false
	}
	name := named.Obj().Name()
	return name == "Mutex" || name == "RWMutex"
}

// receiverName returns the receiver identifier of a method, "" if unnamed.
func receiverName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return ""
	}
	return fn.Recv.List[0].Names[0].Name
}

// lockedBases collects "base.mu" strings for every mutex acquisition in the
// body: a call of the form <base expr>.<mu>.Lock() or .RLock().
func lockedBases(body *ast.BlockStmt) map[string]bool {
	out := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		if muSel, ok := sel.X.(*ast.SelectorExpr); ok {
			out[exprString(muSel.X)+"."+muSel.Sel.Name] = true
		} else if id, ok := sel.X.(*ast.Ident); ok {
			// A bare local/package-level mutex: record under its own name.
			out[id.Name] = true
		}
		return true
	})
	return out
}

// lockedMuNames reports which mutex fields of the receiver the body locks.
func lockedMuNames(body *ast.BlockStmt, recv string) map[string]bool {
	out := make(map[string]bool)
	for base := range lockedBases(body) {
		if rest, ok := strings.CutPrefix(base, recv+"."); ok && !strings.Contains(rest, ".") {
			out[rest] = true
		}
	}
	return out
}

// callerHolds parses the "caller holds <mu>" doc annotations of a function.
func callerHolds(fn *ast.FuncDecl) map[string]bool {
	if fn.Doc == nil {
		return nil
	}
	out := make(map[string]bool)
	for _, m := range callerHoldsRe.FindAllStringSubmatch(fn.Doc.Text(), -1) {
		out[m[1]] = true
	}
	return out
}

// checkFunc verifies every guarded-field access in one function and applies
// the self-deadlock heuristic.
func checkFunc(pkg *Package, fn *ast.FuncDecl, guarded map[*types.Var]guardInfo,
	lockingMethods map[*types.Func]string, report Reporter) {
	locked := lockedBases(fn.Body)
	held := callerHolds(fn)

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pkg.Info.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		v, ok := selection.Obj().(*types.Var)
		if !ok {
			return true
		}
		g, ok := guarded[v]
		if !ok {
			return true
		}
		base := exprString(sel.X)
		if locked[base+"."+g.mu] || held[g.mu] {
			return true
		}
		report(sel.Pos(),
			"%s.%s is guarded by %s: lock %s.%s or annotate the function '// caller holds %s'",
			g.structName, v.Name(), g.mu, base, g.mu, g.mu)
		return true
	})

	// Self-deadlock heuristic: while holding base.mu, calling a method on
	// that same base which locks its receiver's mu again deadlocks.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		callee, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok {
			return true
		}
		mu, ok := lockingMethods[callee]
		if !ok {
			return true
		}
		base := exprString(sel.X)
		if locked[base+"."+mu] || (held[mu] && base == receiverName(fn)) {
			report(call.Pos(),
				"calling %s while %s.%s is held: %s locks %s again (self-deadlock)",
				callee.Name(), base, mu, callee.Name(), mu)
		}
		return true
	})
}

// exprString renders a (selector-chain) expression for base matching.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.StarExpr:
		return exprString(e.X)
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "()"
	default:
		return "?"
	}
}
