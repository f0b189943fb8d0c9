package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeadExport reports every exported function and method of a package under
// LayerScope that no non-test file of the program references: an export
// only tests call is API the system does not use. Every loaded package
// counts as a caller, the commands, examples and the benchmark module
// included; a use inside the function's own body does not. A method some
// interface can call — the program's own, an imported package's (such as
// container/heap's or go/types'), error, the ones errors.Is and As assert,
// or a type constraint's — is exempt, since a call through the interface
// names the interface's method instead.
var DeadExport = &Analyzer{
	Name: "deadexport",
	Doc:  "exported functions and methods must have a caller outside tests",
	Run:  runDeadExport,
}

func runDeadExport(prog *Program, rules *Rules, report Reporter) {
	if rules.LayerScope == "" {
		return
	}
	live := interfaceMethods(prog)
	for _, pkg := range prog.Pkgs {
		for id, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				if s := fn.Origin().Scope(); s == nil || !s.Contains(id.Pos()) {
					live[fn.Origin()] = true // recursion is no caller
				}
			}
		}
	}
	for _, pkg := range prog.Pkgs {
		if !strings.HasPrefix(pkg.Path, rules.LayerScope) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() || live[pkg.Info.Defs[fd.Name].(*types.Func)] {
					continue
				}
				name := pkg.Types.Name() + "."
				if fd.Recv != nil {
					recv := pkg.Info.Types[fd.Recv.List[0].Type].Type
					if p, ok := recv.(*types.Pointer); ok {
						recv = p.Elem()
					}
					name += recv.(*types.Named).Obj().Name() + "."
				}
				report(fd.Name.Pos(), "%s%s has no caller outside tests", name, fd.Name.Name)
			}
		}
	}
}

// interfaceMethods is the set of methods an interface can call: for every
// named type of the program whose pointer implements an interface (or
// satisfies a type constraint) that names one of its methods, that method,
// its own or promoted from an embedded field.
func interfaceMethods(prog *Program) map[*types.Func]bool {
	byMethod := make(map[string][]*types.Interface)
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			for i := 0; i < it.NumMethods(); i++ {
				byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, src := range []string{"interface{ Is(error) bool }", "interface{ As(any) bool }"} {
		if tv, err := types.Eval(token.NewFileSet(), nil, token.NoPos, src); err == nil {
			add(tv.Type)
		}
	}
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range prog.Pkgs {
		visit(pkg.Types)
	}

	out := make(map[*types.Func]bool)
	for _, pkg := range prog.Pkgs {
		for _, name := range pkg.Types.Scope().Names() {
			tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			mset := types.NewMethodSet(ptr)
			for i := 0; i < mset.Len(); i++ {
				fn := mset.At(i).Obj().(*types.Func)
				for _, it := range byMethod[fn.Name()] {
					if it.IsMethodSet() && types.Implements(ptr, it) || !it.IsMethodSet() && types.Satisfies(ptr, it) {
						out[fn.Origin()] = true
						break
					}
				}
			}
		}
	}
	return out
}
