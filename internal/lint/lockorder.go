package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// LockOrder checks acquisition order over a whole-module lock-acquisition
// graph. Mutexes are identified at the type level — the field
// (core.Controller.ueMu) or package-level variable, not the instance — and
// an edge a→b means "b was acquired while a was held", either directly in
// one body or through a call chain: each function gets a transitive
// may-acquire summary (computed to a fixpoint), and a call made while
// holding a contributes edges to everything the callee may acquire.
// Documented "lock ordering: a, b, c" struct comments contribute their
// pairwise edges as the declared direction (every name must be a mutex
// field of the struct), and a "caller holds <mu>" annotation seeds the
// held set. Any cycle in the combined graph is a potential deadlock —
// acquiring against a documented ordering closes one — and every
// discovered (i.e. not merely declared) edge participating in a cycle is
// reported at the acquisition or call site that created it.
//
// Heuristics: the walk is source-order and flow-insensitive, deferred unlocks hold to return, and defer/go
// statements, closures, and dynamic (interface) calls are not followed.
// Self-edges (the same type-level mutex on both sides, e.g. locking two
// shards in sequence during a migration) are skipped: instance identity is
// out of scope for a static pass.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "the cross-function lock-acquisition graph (including documented orderings) must be acyclic",
	Run:  runLockOrder,
}

// muEdge is one acquisition-order edge.
type muEdge struct {
	from, to *types.Var
	pos      token.Pos
	declared bool
}

// muCall is a module-local call made with a (possibly empty) held set.
type muCall struct {
	callee *types.Func
	held   []*types.Var
	pos    token.Pos
}

// lockOrderPass carries the shared state of one run.
type lockOrderPass struct {
	prog    *Program
	idx     map[*types.Func]declSite
	names   map[*types.Var]string // display name per mutex
	facts   map[*types.Func]*lockFnFacts
	order   []*types.Func // deterministic function order
	edges   []muEdge
	edgeSet map[[2]*types.Var]bool
}

// lockFnFacts summarises one function for the fixpoint.
type lockFnFacts struct {
	direct []*types.Var // mutexes this body acquires
	calls  []muCall
}

func runLockOrder(prog *Program, rules *Rules, report Reporter) {
	p := &lockOrderPass{
		prog:    prog,
		idx:     buildDeclIndex(prog),
		names:   make(map[*types.Var]string),
		facts:   make(map[*types.Func]*lockFnFacts),
		edgeSet: make(map[[2]*types.Var]bool),
	}

	// Scan every function in the lock packages; mutexes owned by other
	// packages still resolve when touched from covered code.
	for _, pkg := range prog.Pkgs {
		if !matchPkg(rules.LockPkgs, pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				p.order = append(p.order, obj)
				p.facts[obj] = p.scanFunc(pkg, fn)
			}
		}
		p.declaredEdges(pkg, report)
	}
	if len(p.facts) == 0 {
		return
	}

	p.callEdges()
	p.reportCycles(report)
}

// scanFunc walks one body in source order tracking the held set, recording
// direct edges and calls under held locks.
func (p *lockOrderPass) scanFunc(pkg *Package, fn *ast.FuncDecl) *lockFnFacts {
	facts := &lockFnFacts{}
	var held []*types.Var
	heldSet := make(map[*types.Var]bool)
	for name := range callerHolds(fn) {
		if v := p.receiverMutexField(pkg, fn, name); v != nil && !heldSet[v] {
			held = append(held, v)
			heldSet[v] = true
		}
	}
	directSet := make(map[*types.Var]bool)

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.DeferStmt, *ast.FuncLit, *ast.GoStmt:
			// Deferred unlocks hold to return; closures and goroutines run
			// on their own stacks with their own held sets.
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			if fnObj := calleeFunc(pkg, call); fnObj != nil {
				if _, local := p.idx[fnObj]; local {
					facts.calls = append(facts.calls, muCall{fnObj, append([]*types.Var(nil), held...), call.Pos()})
				}
			}
			return true
		}
		switch sel.Sel.Name {
		case "Lock", "RLock":
			if mu := p.resolveMu(pkg, sel.X); mu != nil {
				for _, h := range held {
					if h != mu {
						p.addEdge(muEdge{from: h, to: mu, pos: call.Pos()})
					}
				}
				if !heldSet[mu] {
					held = append(held, mu)
					heldSet[mu] = true
				}
				if !directSet[mu] {
					directSet[mu] = true
					facts.direct = append(facts.direct, mu)
				}
				return true
			}
		case "Unlock", "RUnlock":
			if mu := p.resolveMu(pkg, sel.X); mu != nil {
				if heldSet[mu] {
					delete(heldSet, mu)
					for i, h := range held {
						if h == mu {
							held = append(held[:i], held[i+1:]...)
							break
						}
					}
				}
				return true
			}
		}
		if fnObj := calleeFunc(pkg, call); fnObj != nil {
			if _, local := p.idx[fnObj]; local {
				facts.calls = append(facts.calls, muCall{fnObj, append([]*types.Var(nil), held...), call.Pos()})
			}
		}
		return true
	})
	return facts
}

// resolveMu identifies the type-level mutex behind the receiver of a
// Lock/Unlock call: a struct field (via the selection) or a package-level
// variable. Locals are instance-scoped and skipped.
func (p *lockOrderPass) resolveMu(pkg *Package, x ast.Expr) *types.Var {
	switch x := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		sel, ok := pkg.Info.Selections[x]
		if !ok || sel.Kind() != types.FieldVal {
			return nil
		}
		v, ok := sel.Obj().(*types.Var)
		if !ok || !isSyncMutex(v.Type()) {
			return nil
		}
		if _, ok := p.names[v]; !ok {
			owner := fieldOwnerName(sel)
			pkgName := "?"
			if v.Pkg() != nil {
				pkgName = v.Pkg().Name()
			}
			p.names[v] = pkgName + "." + owner + "." + v.Name()
		}
		return v
	case *ast.Ident:
		v, ok := pkg.Info.Uses[x].(*types.Var)
		if !ok || !isSyncMutex(v.Type()) || v.Pkg() == nil {
			return nil
		}
		if v.Parent() != v.Pkg().Scope() {
			return nil // local mutex: instance-scoped
		}
		if _, ok := p.names[v]; !ok {
			p.names[v] = v.Pkg().Name() + "." + v.Name()
		}
		return v
	}
	return nil
}

// receiverMutexField resolves a "caller holds <mu>" name against the
// receiver type's fields.
func (p *lockOrderPass) receiverMutexField(pkg *Package, fn *ast.FuncDecl, name string) *types.Var {
	obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
	if !ok {
		return nil
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	f := structMutex(st, name)
	if f == nil {
		return nil
	}
	if _, ok := p.names[f]; !ok {
		p.names[f] = named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + f.Name()
	}
	return f
}

// structMutex returns st's sync-mutex field of the given name, nil if none.
func structMutex(st *types.Struct, name string) *types.Var {
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Name() == name && isSyncMutex(f.Type()) {
			return f
		}
	}
	return nil
}

var lockOrderRe = regexp.MustCompile(`lock ordering: ([A-Za-z_][A-Za-z0-9_]*(?:,\s*[A-Za-z_][A-Za-z0-9_]*)+)`)

// declaredEdges turns "lock ordering: a, b, c" struct docs into declared
// pairwise edges, reporting any name that is not a mutex field of the
// struct.
func (p *lockOrderPass) declaredEdges(pkg *Package, report Reporter) {
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
				m := lockOrderRe.FindStringSubmatch(doc)
				if m == nil {
					continue
				}
				tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				named, ok := tn.Type().(*types.Named)
				if !ok {
					continue
				}
				st, ok := named.Underlying().(*types.Struct)
				if !ok {
					continue
				}
				var vars []*types.Var
				for _, name := range strings.Split(m[1], ",") {
					name = strings.TrimSpace(name)
					fld := structMutex(st, name)
					if fld == nil {
						report(ts.Pos(), "lock ordering names %s but %s.%s is not a sync mutex",
							name, tn.Name(), name)
						continue
					}
					if _, ok := p.names[fld]; !ok {
						p.names[fld] = pkg.Types.Name() + "." + tn.Name() + "." + fld.Name()
					}
					vars = append(vars, fld)
				}
				for i := 0; i < len(vars); i++ {
					for j := i + 1; j < len(vars); j++ {
						p.addEdge(muEdge{from: vars[i], to: vars[j], pos: ts.Pos(), declared: true})
					}
				}
			}
		}
	}
}

// addEdge records an edge once; a discovered edge upgrades a declared one
// (so cycles are reported at real acquisition sites when any exist).
func (p *lockOrderPass) addEdge(e muEdge) {
	key := [2]*types.Var{e.from, e.to}
	if p.edgeSet[key] {
		if !e.declared {
			for i := range p.edges {
				if p.edges[i].from == e.from && p.edges[i].to == e.to && p.edges[i].declared {
					p.edges[i] = e
					break
				}
			}
		}
		return
	}
	p.edgeSet[key] = true
	p.edges = append(p.edges, e)
}

// callEdges computes transitive may-acquire summaries to a fixpoint, then
// adds an edge from every held mutex at a call site to everything the
// callee may acquire.
func (p *lockOrderPass) callEdges() {
	trans := make(map[*types.Func]map[*types.Var]bool, len(p.facts))
	for fn, facts := range p.facts {
		set := make(map[*types.Var]bool, len(facts.direct))
		for _, mu := range facts.direct {
			set[mu] = true
		}
		trans[fn] = set
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range p.order {
			set := trans[fn]
			for _, call := range p.facts[fn].calls {
				for mu := range trans[call.callee] {
					if !set[mu] {
						set[mu] = true
						changed = true
					}
				}
			}
		}
	}
	for _, fn := range p.order {
		for _, call := range p.facts[fn].calls {
			if len(call.held) == 0 {
				continue
			}
			acq := trans[call.callee]
			if len(acq) == 0 {
				continue
			}
			var mus []*types.Var
			for mu := range acq {
				mus = append(mus, mu)
			}
			sort.Slice(mus, func(i, j int) bool { return p.names[mus[i]] < p.names[mus[j]] })
			for _, h := range call.held {
				for _, mu := range mus {
					if h != mu {
						p.addEdge(muEdge{from: h, to: mu, pos: call.pos})
					}
				}
			}
		}
	}
}

// reportCycles finds strongly connected components of the edge graph and
// reports every discovered edge inside one. A component held together only
// by declared orderings means the docs themselves conflict; that is
// reported at the declaration.
func (p *lockOrderPass) reportCycles(report Reporter) {
	adj := make(map[*types.Var][]*types.Var)
	var nodes []*types.Var
	nodeSet := make(map[*types.Var]bool)
	for _, e := range p.edges {
		adj[e.from] = append(adj[e.from], e.to)
		for _, v := range [2]*types.Var{e.from, e.to} {
			if !nodeSet[v] {
				nodeSet[v] = true
				nodes = append(nodes, v)
			}
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return p.names[nodes[i]] < p.names[nodes[j]] })
	for _, v := range nodes {
		ns := adj[v]
		sort.Slice(ns, func(i, j int) bool { return p.names[ns[i]] < p.names[ns[j]] })
	}

	comp := tarjanSCC(nodes, adj)
	for _, e := range p.edges {
		c, ok := comp[e.from]
		if !ok || c != comp[e.to] || e.from == e.to {
			continue
		}
		// The edge sits inside a cycle. Prefer real sites; report declared
		// edges only when no discovered edge shares the component.
		if e.declared && p.componentHasDiscovered(comp, c) {
			continue
		}
		cycle := p.cyclePath(e, comp, adj)
		if e.declared {
			report(e.pos, "documented lock orderings conflict: %s", cycle)
		} else {
			report(e.pos, "acquiring %s while holding %s creates a lock-order cycle: %s",
				p.names[e.to], p.names[e.from], cycle)
		}
	}
}

func (p *lockOrderPass) componentHasDiscovered(comp map[*types.Var]int, c int) bool {
	for _, e := range p.edges {
		if !e.declared && comp[e.from] == c && comp[e.to] == c && e.from != e.to {
			return true
		}
	}
	return false
}

// cyclePath renders the cycle an edge closes: a shortest path from the
// edge's head back to its tail, within the component.
func (p *lockOrderPass) cyclePath(e muEdge, comp map[*types.Var]int, adj map[*types.Var][]*types.Var) string {
	c := comp[e.from]
	prev := map[*types.Var]*types.Var{e.to: nil}
	queue := []*types.Var{e.to}
	for len(queue) > 0 && prev[e.from] == nil && e.from != e.to {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if comp[w] != c {
				continue
			}
			if _, seen := prev[w]; seen {
				continue
			}
			prev[w] = v
			queue = append(queue, w)
		}
	}
	var path []string
	for v := e.from; v != nil; v = prev[v] {
		path = append(path, p.names[v])
		if v == e.to {
			break
		}
	}
	// path is from..to reversed; render from -> to -> ... -> from.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return p.names[e.from] + " -> " + strings.Join(path, " -> ")
}

// tarjanSCC assigns a component id to every node.
func tarjanSCC(nodes []*types.Var, adj map[*types.Var][]*types.Var) map[*types.Var]int {
	index := make(map[*types.Var]int)
	low := make(map[*types.Var]int)
	onStack := make(map[*types.Var]bool)
	comp := make(map[*types.Var]int)
	var stack []*types.Var
	next, nComp := 0, 0

	var strongconnect func(v *types.Var)
	strongconnect = func(v *types.Var) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = nComp
				if w == v {
					break
				}
			}
			nComp++
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return comp
}
