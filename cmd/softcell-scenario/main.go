// softcell-scenario runs the randomized control-plane churn harness over a
// generated topology: Poisson attaches, flows, handoffs and detaches, with
// every live connection re-exercised end to end through the switch tables
// and middleboxes. Zero policy-consistency violations and zero broken flows
// is the pass condition (§5.1).
//
// Usage:
//
//	softcell-scenario -k 4 -ues 60 -duration 2m -seed 7
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/plant"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topo"
)

func main() {
	var (
		k        = flag.Int("k", 2, "generated topology parameter")
		ues      = flag.Int("ues", 24, "subscriber population")
		duration = flag.Duration("duration", time.Minute, "simulated time")
		seed     = flag.Int64("seed", 1, "schedule seed")
	)
	flag.Parse()

	p, err := plant.New(plant.Spec{Topo: topo.GenParams{K: *k, ClusterSize: 10, MBTypes: 3, Seed: *seed}})
	if err != nil {
		log.Fatal(err)
	}
	r, err := scenario.New(p.Net, scenario.Params{
		Seed: *seed, Duration: sim.Time(*duration), UEs: *ues,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("running %v of simulated churn over %d stations, %d subscribers...\n",
		*duration, len(p.Stations), *ues)
	stats, err := r.Run()
	if err != nil {
		log.Fatalf("FAIL: %v", err)
	}
	fmt.Printf("attaches=%d detaches=%d handoffs=%d flows=%d probes=%d denied=%d\n",
		stats.Attaches, stats.Detaches, stats.Handoffs, stats.FlowsOpen, stats.Probes, stats.Denied)
	fmt.Printf("middleboxes: %d connections, %d policy-consistency violations\n",
		stats.Connections, stats.Violations)
	fmt.Printf("controller: %d path asks, %d installs (agents cached the rest)\n",
		stats.ControllerPathAsks, stats.ControllerMisses)
	if stats.Violations == 0 {
		fmt.Println("PASS: policy consistency held under the whole schedule")
	} else {
		log.Fatal("FAIL: consistency violations detected")
	}
}
