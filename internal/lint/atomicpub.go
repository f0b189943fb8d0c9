package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// AtomicPub enforces two publication-safety invariants across the whole
// module:
//
//  1. Mixed atomic/plain access: a struct field that is ever passed to a
//     sync/atomic function (atomic.AddUint64(&x.f, 1), ...) is an atomic
//     field; reading or writing it plainly anywhere races with those
//     atomics and is a finding. Accesses inside sync/atomic call arguments
//     are of course exempt.
//
//  2. Immutable after publish: a type whose doc comment contains the
//     phrase "immutable after publish" (fast-path snapshots, the path
//     table's station rows and the path records filed in them) must have
//     no field or element writes, and no whole-value writes through a
//     pointer (*p = v), outside construction.
//     A write is accepted when (a) the enclosing function returns the
//     marked type (a constructor), (b) the function's doc says
//     "constructs <TypeName>" (a builder helper), or (c) the written
//     value is a function-local built fresh in that body (composite
//     literal, make, or new) — still private, not yet published.
var AtomicPub = &Analyzer{
	Name: "atomicpub",
	Doc:  "fields accessed via sync/atomic must never be accessed plainly; 'immutable after publish' types must only be written during construction",
	Run:  runAtomicPub,
}

var constructsRe = regexp.MustCompile(`constructs ([A-Za-z_][A-Za-z0-9_]*)`)

func runAtomicPub(prog *Program, rules *Rules, report Reporter) {
	checkAtomicFields(prog, report)
	checkImmutablePublish(prog, report)
}

// atomicCallee reports whether the call is into package sync/atomic, and
// if so which function.
func atomicCallee(pkg *Package, call *ast.CallExpr) (*types.Func, bool) {
	fn := calleeFunc(pkg, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return nil, false
	}
	return fn, true
}

// checkAtomicFields implements invariant 1.
func checkAtomicFields(prog *Program, report Reporter) {
	// Pass 1: collect every field whose address feeds a sync/atomic call.
	atomicField := make(map[*types.Var]string) // field -> atomic func name seen
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn, ok := atomicCallee(pkg, call)
				if !ok {
					return true
				}
				for _, arg := range call.Args {
					un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
					if !ok || un.Op != token.AND {
						continue
					}
					sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
					if !ok {
						continue
					}
					selection, ok := pkg.Info.Selections[sel]
					if !ok || selection.Kind() != types.FieldVal {
						continue
					}
					if v, ok := selection.Obj().(*types.Var); ok {
						if _, seen := atomicField[v]; !seen {
							atomicField[v] = "atomic." + fn.Name()
						}
					}
				}
				return true
			})
		}
	}
	if len(atomicField) == 0 {
		return
	}

	// Pass 2: flag every plain selector access to those fields. Subtrees of
	// sync/atomic calls are skipped — their &x.f arguments are the sanctioned
	// access form.
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if _, ok := atomicCallee(pkg, call); ok {
						return false
					}
				}
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
				via, ok := atomicField[v]
				if !ok {
					return true
				}
				owner := fieldOwnerName(selection)
				report(sel.Pos(),
					"plain access to %s.%s, which is accessed with %s elsewhere: use atomic loads/stores",
					owner, v.Name(), via)
				return true
			})
		}
	}
}

// fieldOwnerName names the struct a field selection goes through.
func fieldOwnerName(sel *types.Selection) string {
	t := sel.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return "struct"
}

// checkImmutablePublish implements invariant 2.
func checkImmutablePublish(prog *Program, report Reporter) {
	marked := make(map[*types.TypeName]bool)
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					doc := ""
					if ts.Doc != nil {
						doc = ts.Doc.Text()
					} else if gd.Doc != nil {
						doc = gd.Doc.Text()
					}
					if !strings.Contains(doc, "immutable after publish") {
						continue
					}
					if tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName); ok {
						marked[tn] = true
					}
				}
			}
		}
	}
	if len(marked) == 0 {
		return
	}

	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				checkImmutableWrites(pkg, fn, marked, report)
			}
		}
	}
}

// checkImmutableWrites flags writes to marked types in one function.
func checkImmutableWrites(pkg *Package, fn *ast.FuncDecl, marked map[*types.TypeName]bool, report Reporter) {
	allowed := constructorFor(pkg, fn, marked)
	fresh := freshLocals(pkg, fn.Body)

	checkTarget := func(lhs ast.Expr) {
		tn := governingMarkedType(pkg, lhs, marked)
		if tn == nil {
			return
		}
		if allowed[tn] {
			return
		}
		if root := rootIdentVar(pkg, lhs); root != nil && fresh[root] {
			return
		}
		report(lhs.Pos(),
			"write to %s outside construction: the type is immutable after publish (allowed in functions returning it, in '// constructs %s' helpers, or on locals built fresh in the same body)",
			tn.Name(), tn.Name())
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true // definitions create new variables, not writes
			}
			for _, lhs := range n.Lhs {
				checkTarget(lhs)
			}
		case *ast.IncDecStmt:
			checkTarget(n.X)
		}
		return true
	})
}

// constructorFor computes which marked types this function may legally
// write: types it returns (possibly behind a pointer) and types its doc
// claims to construct.
func constructorFor(pkg *Package, fn *ast.FuncDecl, marked map[*types.TypeName]bool) map[*types.TypeName]bool {
	out := make(map[*types.TypeName]bool)
	obj, _ := pkg.Info.Defs[fn.Name].(*types.Func)
	if obj != nil {
		if sig, ok := obj.Type().(*types.Signature); ok {
			res := sig.Results()
			for i := 0; i < res.Len(); i++ {
				if tn := namedTypeName(res.At(i).Type()); tn != nil && marked[tn] {
					out[tn] = true
				}
			}
		}
	}
	if fn.Doc != nil {
		for _, m := range constructsRe.FindAllStringSubmatch(fn.Doc.Text(), -1) {
			if o, ok := pkg.Types.Scope().Lookup(m[1]).(*types.TypeName); ok && marked[o] {
				out[o] = true
			}
		}
	}
	return out
}

// namedTypeName unwraps pointers down to a named type's TypeName.
func namedTypeName(t types.Type) *types.TypeName {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// governingMarkedType walks a write target down its base chain and returns
// the marked type the write mutates, if any: a field of a marked struct, an
// element of a marked map/slice type, or a marked value stored whole
// through a pointer, reached along the way.
func governingMarkedType(pkg *Package, e ast.Expr, marked map[*types.TypeName]bool) *types.TypeName {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			if tv, ok := pkg.Info.Types[x]; ok {
				if named, ok := tv.Type.(*types.Named); ok && marked[named.Obj()] {
					return named.Obj()
				}
			}
			e = x.X
		case *ast.SelectorExpr:
			if sel, ok := pkg.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				if tn := namedTypeName(sel.Recv()); tn != nil && marked[tn] {
					return tn
				}
			}
			e = x.X
		case *ast.IndexExpr:
			if tv, ok := pkg.Info.Types[x.X]; ok && tv.Type != nil {
				if tn := namedTypeName(tv.Type); tn != nil && marked[tn] {
					return tn
				}
			}
			e = x.X
		default:
			return nil
		}
	}
}

// rootIdentVar finds the variable at the base of a write target.
func rootIdentVar(pkg *Package, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			v, _ := pkg.Info.Uses[x].(*types.Var)
			return v
		default:
			return nil
		}
	}
}

// freshLocals collects variables defined in this body from a fresh
// allocation: x := T{...}, x := &T{...}, x := make(...), x := new(...).
// Writes through them happen before publication.
func freshLocals(pkg *Package, body *ast.BlockStmt) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if !isFreshAlloc(pkg, as.Rhs[i]) {
				continue
			}
			if v, ok := pkg.Info.Defs[id].(*types.Var); ok {
				out[v] = true
			}
		}
		return true
	})
	return out
}

// isFreshAlloc reports whether an expression builds a brand-new value.
func isFreshAlloc(pkg *Package, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			_, ok := ast.Unparen(x.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
				return b.Name() == "make" || b.Name() == "new"
			}
		}
	}
	return false
}
