package softcell_test

import (
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// citedPath matches a file path a document cites in backticks: a name
// ending in .go, .md, .txt, .json or .sh, optionally followed by a :line.
var citedPath = regexp.MustCompile("`([A-Za-z0-9_./*-]+\\.(?:go|md|txt|json|sh))(?::[0-9]+)?`")

// treeFiles lists the files under root, slash-separated and relative to
// it, leaving out hidden directories and the benchmark's build directory.
func treeFiles(t *testing.T, root string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() {
			rel, err := filepath.Rel(root, p)
			if err != nil {
				return err
			}
			files = append(files, filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// unresolved returns the paths text cites that name no file of files, or
// more than one. A cited path resolves to the file it names from the root,
// or else to the one file whose path ends in it; a glob (BENCH_*.json)
// resolves to any number of files but none. A name starting with "_" is a
// suffix, not a file (`_test.go`), and is left alone.
func unresolved(files []string, text []byte) []string {
	var bad []string
	for _, m := range citedPath.FindAllSubmatch(text, -1) {
		cited := string(m[1])
		if strings.HasPrefix(path.Base(cited), "_") || slices.Contains(files, cited) {
			continue
		}
		n := 0
		for _, f := range files {
			for tail := f; tail != ""; {
				if ok, _ := path.Match(cited, tail); ok {
					n++
					break
				}
				_, tail, _ = strings.Cut(tail, "/")
			}
		}
		if n == 0 || (n > 1 && !strings.Contains(cited, "*")) {
			bad = append(bad, cited)
		}
	}
	return bad
}

// TestDocsCiteFilesThatExist resolves every file path DESIGN.md and
// README.md cite in backticks to a file of the tree, so a renamed or
// deleted file cannot leave a document pointing nowhere.
func TestDocsCiteFilesThatExist(t *testing.T) {
	files := treeFiles(t, ".")
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		if bad := unresolved(files, text); len(bad) > 0 {
			t.Errorf("%s cites %d paths that name no file, or several: %v", doc, len(bad), bad)
		}
	}
}

// TestUnresolvedNamesPlantedPaths checks the check: planted missing paths,
// an ambiguous suffix and a glob matching nothing are reported, and a path
// from the root, a unique suffix (with a line or without), a glob and a
// bare suffix are not.
func TestUnresolvedNamesPlantedPaths(t *testing.T) {
	files := []string{"bench_test.go", "bench/bench_test.go", "internal/switchsim/switch.go",
		"internal/agent/obs.go", "internal/core/obs.go", "results/BENCH_a.json", "results/BENCH_b.json"}
	text := []byte("`bench_test.go` `switchsim/switch.go:108` `switch.go` `results/BENCH_*.json` `_test.go` " +
		"`internal/switchsim/gone.go` `x/bench_test.go` `obs.go` `bench/README.md` `results/FIG_*.txt`")
	want := []string{"internal/switchsim/gone.go", "x/bench_test.go", "obs.go", "bench/README.md", "results/FIG_*.txt"}
	if got := unresolved(files, text); !slices.Equal(got, want) {
		t.Fatalf("unresolved reported %v, want %v", got, want)
	}
}
