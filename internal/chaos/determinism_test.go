package chaos

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"
)

// determinismFile pins the sha256 of every same-seed output the smoke
// tests produce, so a digest that moves fails the suite instead of being
// compared by hand.
const determinismFile = "../../results/determinism.txt"

// checkDigest fails unless data hashes to the digest determinismFile pins
// under name.
func checkDigest(t *testing.T, name string, data []byte) {
	t.Helper()
	raw, err := os.ReadFile(determinismFile)
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%x", sha256.Sum256(data))
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == name {
			if f[1] != got {
				t.Errorf("%s moved: sha256 %s, results/determinism.txt pins %s; if the change is intended, update that line of results/determinism.txt and name it in CHANGES.md", name, got, f[1])
			}
			return
		}
	}
	t.Errorf("results/determinism.txt pins no %s (sha256 %s)", name, got)
}
