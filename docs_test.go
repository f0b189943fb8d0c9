package softcell_test

import (
	"bytes"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// citedPath matches a file path a document cites in backticks: a name
// ending in .go, .md, .txt, .json or .sh, optionally followed by a :line.
var citedPath = regexp.MustCompile("`([A-Za-z0-9_./*-]+\\.(?:go|md|txt|json|sh))(?::([0-9]+))?`")

// treeFiles maps each file under root, slash-separated and relative to it,
// to its line count, leaving out hidden directories and so the
// benchmark's build directory.
func treeFiles(t *testing.T, root string) map[string]int {
	t.Helper()
	files := map[string]int{}
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
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			lines := bytes.Count(b, []byte("\n"))
			if len(b) > 0 && b[len(b)-1] != '\n' {
				lines++
			}
			files[filepath.ToSlash(rel)] = lines
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// unresolved returns the citations in text that name no file of files, or
// more than one, or a line past the end of the one file they name; files
// maps each path to its line count. A cited path resolves to the file it
// names from the root, or else to the one file whose path ends in it; a
// glob (BENCH_*.json) resolves to any number of files but none. A name
// starting with "_" is a suffix, not a file (`_test.go`), and is left
// alone.
func unresolved(files map[string]int, text []byte) []string {
	var bad []string
	for _, m := range citedPath.FindAllSubmatch(text, -1) {
		cited := string(m[1])
		if strings.HasPrefix(path.Base(cited), "_") {
			continue
		}
		var named []string
		if _, ok := files[cited]; ok {
			named = []string{cited}
		} else {
			for f := range files {
				for tail := f; tail != ""; {
					if ok, _ := path.Match(cited, tail); ok {
						named = append(named, f)
						break
					}
					_, tail, _ = strings.Cut(tail, "/")
				}
			}
		}
		switch line, _ := strconv.Atoi(string(m[2])); {
		case len(named) == 0 || (len(named) > 1 && !strings.Contains(cited, "*")):
			bad = append(bad, cited)
		case len(named) == 1 && line > files[named[0]]:
			bad = append(bad, string(m[0][1:len(m[0])-1]))
		}
	}
	return bad
}

// TestDocsCiteFilesThatExist resolves every file path DESIGN.md and
// README.md cite in backticks to a file of the tree, and every cited line
// to a line of that file, so a renamed, deleted or shortened file cannot
// leave a document pointing nowhere.
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
// an ambiguous suffix, a glob matching nothing and a line past the end of
// its file are reported, and a path from the root, a unique suffix (with a
// line within the file or without), a glob and a bare suffix are not.
func TestUnresolvedNamesPlantedPaths(t *testing.T) {
	files := map[string]int{"bench_test.go": 40, "bench/bench_test.go": 40, "internal/switchsim/switch.go": 108,
		"internal/agent/obs.go": 60, "internal/core/obs.go": 60, "results/BENCH_a.json": 9, "results/BENCH_b.json": 9}
	text := []byte("`bench_test.go` `switchsim/switch.go:108` `switch.go` `results/BENCH_*.json` `_test.go` " +
		"`internal/switchsim/gone.go` `x/bench_test.go` `obs.go` `bench/README.md` `results/FIG_*.txt` `switch.go:109`")
	want := []string{"internal/switchsim/gone.go", "x/bench_test.go", "obs.go", "bench/README.md", "results/FIG_*.txt", "switch.go:109"}
	if got := unresolved(files, text); !slices.Equal(got, want) {
		t.Fatalf("unresolved reported %v, want %v", got, want)
	}
}
