package lint

import (
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// graphFixture loads hotgraph and indexes its functions by display name.
func graphFixture(t *testing.T) (map[string]*types.Func, map[*types.Func]declSite) {
	t.Helper()
	prog := loadFixture(t, "hotgraph")
	idx := buildDeclIndex(prog)
	byName := make(map[string]*types.Func, len(idx))
	for fn := range idx {
		byName[funcDisplay(fn)] = fn
	}
	return byName, idx
}

func callsOf(facts *hotFacts) map[string]bool {
	out := make(map[string]bool, len(facts.calls))
	for _, fn := range facts.calls {
		out[funcDisplay(fn)] = true
	}
	return out
}

// TestHotCallGraphRecursion pins the recursive edge: Rec must list itself
// as a callee, and the per-root walk must terminate on the cycle.
func TestHotCallGraphRecursion(t *testing.T) {
	byName, idx := graphFixture(t)
	rec, ok := byName["Rec"]
	if !ok {
		t.Fatal("Rec not in decl index")
	}
	facts := scanHotBody(idx[rec], idx)
	if !callsOf(facts)["Rec"] {
		t.Errorf("Rec's call edges = %v, want the recursive Rec edge", callsOf(facts))
	}
	var allocs int
	for _, v := range facts.viols {
		if v.kind == "alloc" {
			allocs++
		}
	}
	if allocs != 1 {
		t.Errorf("Rec alloc violations = %d, want 1 (the make)", allocs)
	}
}

// TestHotCallGraphMethodValue pins the method-value edge: binding b.Grow
// without calling it must still produce the Grow edge (plus the closure
// allocation for the bound value itself).
func TestHotCallGraphMethodValue(t *testing.T) {
	byName, idx := graphFixture(t)
	tv, ok := byName["TakeValue"]
	if !ok {
		t.Fatal("TakeValue not in decl index")
	}
	facts := scanHotBody(idx[tv], idx)
	if !callsOf(facts)["Box.Grow"] {
		t.Errorf("TakeValue's call edges = %v, want Box.Grow", callsOf(facts))
	}
	found := false
	for _, v := range facts.viols {
		if strings.Contains(v.desc, "bound method value") {
			found = true
		}
	}
	if !found {
		t.Errorf("TakeValue violations = %+v, want a bound-method-value allocation", facts.viols)
	}

	// A package-function reference is an edge but not an allocation.
	ch := byName["CallsHelper"]
	facts = scanHotBody(idx[ch], idx)
	if !callsOf(facts)["helper"] {
		t.Errorf("CallsHelper's call edges = %v, want helper", callsOf(facts))
	}
	for _, v := range facts.viols {
		t.Errorf("CallsHelper has unexpected violation: %s", v.desc)
	}
}

// TestParseEscapes checks the -gcflags=-m output filter.
func TestParseEscapes(t *testing.T) {
	out := []byte(strings.Join([]string{
		"# repro/internal/core",
		"internal/core/controller.go:88:13: make(tagMap) escapes to heap",
		"internal/core/controller.go:90:6: can inline resolvePathLocked",
		"internal/core/partition.go:41:10: moved to heap: out",
		"internal/core/partition.go:44:2: q does not escape",
		"garbage line with no file",
	}, "\n"))
	diags := ParseEscapes("/mod", out)
	if len(diags) != 2 {
		t.Fatalf("ParseEscapes returned %d diags, want 2: %+v", len(diags), diags)
	}
	if diags[0].File != filepath.FromSlash("/mod/internal/core/controller.go") || diags[0].Line != 88 {
		t.Errorf("diags[0] = %+v, want controller.go:88", diags[0])
	}
	if !strings.Contains(diags[1].Msg, "moved to heap") || diags[1].Line != 41 {
		t.Errorf("diags[1] = %+v, want partition.go:41 moved-to-heap", diags[1])
	}
}

// TestEscapeCrossCheck fabricates compiler diagnostics on the hotesc MARK
// lines: only the one inside a hot function's non-panic span fires.
func TestEscapeCrossCheck(t *testing.T) {
	prog := loadFixture(t, "hotesc")

	src := filepath.Join("testdata", "src", "hotesc", "hotesc.go")
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	abs, err := filepath.Abs(src)
	if err != nil {
		t.Fatal(err)
	}
	marks := make(map[string]int)
	for i, line := range strings.Split(string(data), "\n") {
		if j := strings.Index(line, "MARK:"); j >= 0 {
			marks[strings.TrimSpace(line[j+len("MARK:"):])] = i + 1
		}
	}
	for _, m := range []string{"warm", "crash", "cool"} {
		if marks[m] == 0 {
			t.Fatalf("marker %q not found in %s", m, src)
		}
	}

	rules := &Rules{Escapes: []EscapeDiag{
		{File: abs, Line: marks["warm"], Msg: "p escapes to heap"},
		{File: abs, Line: marks["crash"], Msg: `"hotesc: " + msg escapes to heap`},
		{File: abs, Line: marks["cool"], Msg: "make([]int, 3) escapes to heap"},
	}}
	diags, _ := RunReport(prog, rules, []*Analyzer{HotPath})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1 (warm only): %v", len(diags), diags)
	}
	d := diags[0]
	if d.Pos.Line != marks["warm"] || !strings.Contains(d.Message, "compiler escape analysis") ||
		!strings.Contains(d.Message, "Warm") {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}
