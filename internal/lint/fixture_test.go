package lint

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// loadFixture type-checks fixture packages under testdata/src; fixtures
// import each other (and are imported by the rule tables) as "fixture/<dir>".
func loadFixture(t *testing.T, paths ...string) *Program {
	t.Helper()
	l := NewLoader(filepath.Join("testdata", "src"), "fixturemod")
	l.FixtureRoot = filepath.Join("testdata", "src")
	l.FixturePrefix = "fixture/"
	for _, p := range paths {
		if _, err := l.Load("fixture/" + p); err != nil {
			t.Fatalf("load fixture %s: %v", p, err)
		}
	}
	return l.Program()
}

// wantSpec is one expectation parsed from a `want "regexp"` comment; the
// regexp is matched against `[rule] message` of diagnostics reported on the
// comment's line.
type wantSpec struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRe = regexp.MustCompile("want\\s+[\"`]((?:[^\"`\\\\]|\\\\.)*)[\"`]")

// collectWants scans every comment of the program for want expectations.
func collectWants(t *testing.T, prog *Program) []*wantSpec {
	t.Helper()
	var wants []*wantSpec
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s: bad want pattern %q: %v",
								prog.Fset.Position(c.Pos()), m[1], err)
						}
						pos := prog.Fset.Position(c.Pos())
						wants = append(wants, &wantSpec{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}
	return wants
}

// checkFixture runs the analyzers and asserts one-to-one coverage between
// diagnostics and want comments.
func checkFixture(t *testing.T, prog *Program, rules *Rules, analyzers []*Analyzer) []Diagnostic {
	t.Helper()
	diags, _ := RunReport(prog, rules, analyzers)
	wants := collectWants(t, prog)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line &&
				w.re.MatchString("["+d.Rule+"] "+d.Message) {
				w.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
	return diags
}

func TestLockCheckFixture(t *testing.T) {
	prog := loadFixture(t, "lock")
	checkFixture(t, prog, &Rules{LockPkgs: []string{"fixture/lock"}}, []*Analyzer{LockCheck})
}

func TestDeterminismFixture(t *testing.T) {
	prog := loadFixture(t, "determ")
	checkFixture(t, prog, &Rules{DetermPkgs: []string{"fixture/determ"}}, []*Analyzer{Determinism})
}

func TestLayeringFixture(t *testing.T) {
	// layera is pulled in transitively through layerb's imports.
	prog := loadFixture(t, "layers/layerb", "layers/layerc")
	rules := &Rules{
		LayerScope: "fixture/layers/",
		Layer: map[string][]string{
			"fixture/layers/layera": {},
			"fixture/layers/layerb": {"fixture/layers/layera"},
		},
		Construct: []ConstructRule{{
			Func:    "fixture/layers/layerc.NewWidget",
			Allowed: []string{"fixture/layers/layera"},
		}},
	}
	checkFixture(t, prog, rules, []*Analyzer{Layering})
}

// TestDeadExportFixture: an export only a _test.go file calls is reported,
// one a main package calls is not, heap.Interface's methods are exempt, and
// the //lint:ignore on lib.Kept suppresses its finding (were it unused, it
// would itself be reported).
func TestDeadExportFixture(t *testing.T) {
	prog := loadFixture(t, "deadexp/tool")
	checkFixture(t, prog, &Rules{LayerScope: "fixture/deadexp/"}, []*Analyzer{DeadExport})
}

func TestObsCheckFixture(t *testing.T) {
	prog := loadFixture(t, "obsfix/use")
	checkFixture(t, prog, &Rules{ObsPkg: "fixture/obsfix/obs"}, []*Analyzer{ObsCheck})
}

func TestErrDropFixture(t *testing.T) {
	prog := loadFixture(t, "errdrop")
	checkFixture(t, prog, &Rules{ErrAllowNames: []string{"Close"}}, []*Analyzer{ErrDrop})
}

func TestHotPathFixture(t *testing.T) {
	prog := loadFixture(t, "hot")
	checkFixture(t, prog, &Rules{}, []*Analyzer{HotPath})
}

func TestAtomicPubFixture(t *testing.T) {
	prog := loadFixture(t, "atomicpub")
	checkFixture(t, prog, &Rules{}, []*Analyzer{AtomicPub})
}

func TestLockOrderFixture(t *testing.T) {
	prog := loadFixture(t, "lockord")
	checkFixture(t, prog, &Rules{LockPkgs: []string{"fixture/lockord"}}, []*Analyzer{LockOrder})
}

// TestIgnoreExactness pins analyzer-exact suppression: a directive only
// consumes findings of the analyzer it names, and unknown names are
// rejected rather than silently swallowing the line below.
func TestIgnoreExactness(t *testing.T) {
	prog := loadFixture(t, "exact")
	checkFixture(t, prog, &Rules{DetermPkgs: []string{"fixture/exact"}},
		[]*Analyzer{Determinism, ErrDrop})
}

// TestIgnoreDirectives checks the machinery itself: a stale suppression and
// a malformed directive are both findings under the pseudo-rule "lint".
func TestIgnoreDirectives(t *testing.T) {
	prog := loadFixture(t, "ignores")
	diags, _ := RunReport(prog, &Rules{}, []*Analyzer{ErrDrop})
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %v", len(diags), diags)
	}
	var unused, malformed bool
	for _, d := range diags {
		if d.Rule != "lint" {
			t.Errorf("diagnostic rule = %q, want \"lint\": %s", d.Rule, d)
		}
		if strings.Contains(d.Message, "unused") {
			unused = true
		}
		if strings.Contains(d.Message, "malformed") {
			malformed = true
		}
	}
	if !unused || !malformed {
		t.Errorf("missing expected findings (unused=%v malformed=%v): %v", unused, malformed, diags)
	}
}

// TestAnalyzersComplete pins the production analyzer set.
func TestAnalyzersComplete(t *testing.T) {
	want := []string{"lockcheck", "lockorder", "hotpath", "atomicpub",
		"determinism", "layering", "deadexport", "errdrop", "obscheck"}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("Analyzers() returned %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("Analyzers()[%d].Name = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
	}
}

// TestRepoIsClean loads the whole module and asserts the production rules
// produce zero findings — the same gate `make verify` runs, including the
// compiler escape cross-check (some hot-path suppressions exist only for
// escape findings; without Escapes they would report as unused).
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow; skipped in -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := NewLoader(root, "repro").LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	rules := DefaultRules()
	cmd := exec.Command("go", "build", "-gcflags=-m", "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	rules.Escapes = ParseEscapes(root, out)
	diags, _ := RunReport(prog, rules, Analyzers())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
