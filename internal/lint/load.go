package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package of the tree under analysis. Test
// files (_test.go) are excluded: the invariants guard production code, and
// tests legitimately reach into internals the analyzers would flag.
type Package struct {
	Path  string // import path ("repro/internal/core")
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is the full set of loaded packages plus the shared FileSet.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package // sorted by import path
}

// Loader parses and type-checks packages using only the standard library:
// module-local import paths resolve against the module root, everything
// else (the standard library) goes through go/importer's source importer,
// so the whole pipeline works offline with zero dependencies.
type Loader struct {
	ModRoot string // filesystem root of the module
	ModPath string // module path ("repro")

	// FixtureRoot/FixturePrefix let tests load fixture packages: an import
	// path beginning with FixturePrefix maps into FixtureRoot the way
	// module paths map into ModRoot.
	FixtureRoot   string
	FixturePrefix string

	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader builds a loader for the module rooted at modRoot.
func NewLoader(modRoot, modPath string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		ModRoot: modRoot,
		ModPath: modPath,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
}

// dirFor maps an import path to a directory, when the path is ours.
func (l *Loader) dirFor(path string) (string, bool) {
	switch {
	case path == l.ModPath:
		return l.ModRoot, true
	case strings.HasPrefix(path, l.ModPath+"/"):
		return filepath.Join(l.ModRoot, filepath.FromSlash(strings.TrimPrefix(path, l.ModPath+"/"))), true
	case l.FixturePrefix != "" && strings.HasPrefix(path, l.FixturePrefix):
		return filepath.Join(l.FixtureRoot, filepath.FromSlash(strings.TrimPrefix(path, l.FixturePrefix))), true
	}
	return "", false
}

// Import implements types.Importer: module and fixture paths load through
// the loader itself; anything else is standard library.
func (l *Loader) Import(path string) (*types.Package, error) {
	if _, ours := l.dirFor(path); !ours {
		return l.std.Import(path)
	}
	pkg, err := l.Load(path)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// Load parses and type-checks one module-local package (and, transitively,
// everything it imports).
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("lint: %q is not a module-local import path", path)
	}
	names, err := sourceFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go source files in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// sourceFiles lists the non-test Go files of a directory, sorted.
func sourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// LoadAll walks the module tree and loads every package in it (skipping
// testdata, hidden directories, and directories without Go files).
func (l *Loader) LoadAll() (*Program, error) {
	var paths []string
	err := filepath.WalkDir(l.ModRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.ModRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		names, err := sourceFiles(p)
		if err != nil {
			return err
		}
		if len(names) == 0 {
			return nil // a directory without Go files is simply not a package
		}
		rel, err := filepath.Rel(l.ModRoot, p)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, l.ModPath)
		} else {
			paths = append(paths, l.ModPath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.Load(p); err != nil {
			return nil, err
		}
	}
	return l.Program(), nil
}

// Program assembles every package loaded so far into a Program.
func (l *Loader) Program() *Program {
	prog := &Program{Fset: l.fset}
	for _, p := range l.pkgs {
		prog.Pkgs = append(prog.Pkgs, p)
	}
	sort.Slice(prog.Pkgs, func(i, j int) bool { return prog.Pkgs[i].Path < prog.Pkgs[j].Path })
	return prog
}
