package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ErrDrop reports discarded error results: a call whose error return is
// assigned to the blank identifier, or used as a bare statement (including
// go/defer statements), silently swallows a failure. Conventionally
// best-effort callees (Close, the fmt printers, bytes.Buffer writes) pass
// through an explicit allowlist; anything else deliberate takes a
// //lint:ignore errdrop <reason>.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "no discarded error results outside the explicit allowlist",
	Run:  runErrDrop,
}

var errType = types.Universe.Lookup("error").Type()

func runErrDrop(prog *Program, rules *Rules, report Reporter) {
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					checkAssign(pkg, n, rules, report)
				case *ast.ExprStmt:
					if call, ok := n.X.(*ast.CallExpr); ok {
						checkBareCall(pkg, call, rules, report)
					}
				case *ast.DeferStmt:
					checkBareCall(pkg, n.Call, rules, report)
				case *ast.GoStmt:
					checkBareCall(pkg, n.Call, rules, report)
				}
				return true
			})
		}
	}
}

// checkAssign flags blank assignments of error results from calls.
func checkAssign(pkg *Package, n *ast.AssignStmt, rules *Rules, report Reporter) {
	// Tuple form: a, _ := f()
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		call, ok := n.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		tuple, ok := pkg.Info.Types[call].Type.(*types.Tuple)
		if !ok || tuple.Len() != len(n.Lhs) {
			return
		}
		for i, lhs := range n.Lhs {
			if isBlank(lhs) && isErr(tuple.At(i).Type()) {
				reportDrop(pkg, call, rules, report, n.Pos())
			}
		}
		return
	}
	// Parallel form: _ = f()
	if len(n.Rhs) != len(n.Lhs) {
		return
	}
	for i, lhs := range n.Lhs {
		if !isBlank(lhs) {
			continue
		}
		call, ok := n.Rhs[i].(*ast.CallExpr)
		if !ok {
			continue
		}
		if tv, ok := pkg.Info.Types[call]; ok && isErr(tv.Type) {
			reportDrop(pkg, call, rules, report, n.Pos())
		}
	}
}

// checkBareCall flags expression/defer/go calls whose results include an
// error nobody looks at.
func checkBareCall(pkg *Package, call *ast.CallExpr, rules *Rules, report Reporter) {
	tv, ok := pkg.Info.Types[call]
	if !ok || tv.IsType() {
		return
	}
	dropsError := false
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErr(t.At(i).Type()) {
				dropsError = true
			}
		}
	default:
		dropsError = isErr(tv.Type)
	}
	if dropsError {
		reportDrop(pkg, call, rules, report, call.Pos())
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func isErr(t types.Type) bool { return types.Identical(t, errType) }

// reportDrop applies the allowlist, then reports.
func reportDrop(pkg *Package, call *ast.CallExpr, rules *Rules, report Reporter, pos token.Pos) {
	name := calleeLabel(pkg, call)
	if allowedDrop(pkg, call, rules) {
		return
	}
	report(pos, "%s returns an error that is discarded; handle it or allowlist/ignore it", name)
}

// allowedDrop consults the errdrop allowlist for the call's callee.
func allowedDrop(pkg *Package, call *ast.CallExpr, rules *Rules) bool {
	fn := calleeFunc(pkg, call)
	if fn == nil {
		return false
	}
	for _, n := range rules.ErrAllowNames {
		if fn.Name() == n {
			return true
		}
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() == nil && fn.Pkg() != nil {
		q := fn.Pkg().Path() + "." + fn.Name()
		for _, allowed := range rules.ErrAllowFuncs {
			if q == allowed {
				return true
			}
		}
	}
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			q := typeName(named)
			for _, allowed := range rules.ErrAllowRecvTypes {
				if q == allowed {
					return true
				}
			}
		}
	}
	return false
}

// calleeFunc resolves the called function object, when statically known.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// calleeLabel names the callee for the diagnostic.
func calleeLabel(pkg *Package, call *ast.CallExpr) string {
	if fn := calleeFunc(pkg, call); fn != nil {
		return fn.Name()
	}
	return "call"
}

// typeName renders a named type as "pkgpath.Name" for allowlist matching
// and messages.
func typeName(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
