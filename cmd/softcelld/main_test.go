package main

import (
	"strings"
	"testing"
)

// TestEmulationNeedsSingleController: emulated agents attach through the
// in-process data plane, which a sharded plant does not build, so the
// combination is refused up front with both flags named; either flag alone
// is accepted.
func TestEmulationNeedsSingleController(t *testing.T) {
	err := checkFlags(2, 4)
	if err == nil {
		t.Fatal("-shards 2 -emulate-agents 4 accepted")
	}
	for _, flag := range []string{"-shards 2", "-emulate-agents 4"} {
		if !strings.Contains(err.Error(), flag) {
			t.Errorf("error %q does not name %s", err, flag)
		}
	}
	for _, ok := range [][2]int{{0, 4}, {2, 0}, {0, 0}} {
		if err := checkFlags(ok[0], ok[1]); err != nil {
			t.Errorf("-shards %d -emulate-agents %d refused: %v", ok[0], ok[1], err)
		}
	}
}
