// softcelld runs a SoftCell controller serving the binary control channel
// over TCP: one controller with the full data plane assembled in-process,
// or a sharded control plane alone. It demonstrates the deployable control
// plane: external agents (or, on one controller, the bundled emulation)
// connect, attach subscribers and request policy paths over the wire.
//
// Usage:
//
//	softcelld -listen 127.0.0.1:9444                # serve and wait
//	softcelld -emulate-agents 8 -ues 200            # plus an emulated RAN
//	softcelld -shards 4                             # sharded control plane
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"repro/internal/ctrlproto"
	"repro/internal/obs"
	"repro/internal/plant"
	"repro/internal/policy"
	"repro/internal/topo"
)

// serveDebug exposes the registry's introspection endpoints (/metrics,
// /debug/snapshot, /debug/events, /debug/pprof/) when addr is non-empty.
func serveDebug(addr string, reg *obs.Registry) {
	if addr == "" {
		return
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("softcelld: debug endpoints on http://%s (/metrics /debug/snapshot /debug/events /debug/pprof/)", ln.Addr())
	go func() {
		if err := http.Serve(ln, obs.DebugHandler(reg)); err != nil {
			log.Printf("debug: %v", err)
		}
	}()
}

// checkFlags refuses, before anything is built, a flag combination the
// daemon cannot honour: emulated agents attach through the in-process data
// plane, which only a single controller has.
func checkFlags(shards, emulate int) error {
	if shards > 0 && emulate > 0 {
		return fmt.Errorf("softcelld: -emulate-agents %d needs the in-process data plane, which -shards %d does not build; drop one of the two flags", emulate, shards)
	}
	return nil
}

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:9444", "control channel listen address")
		k       = flag.Int("k", 4, "generated topology parameter")
		emulate = flag.Int("emulate-agents", 0, "spawn this many wire-connected emulated agents (single controller only)")
		ues     = flag.Int("ues", 100, "emulated subscribers to attach (with -emulate-agents)")
		shards  = flag.Int("shards", 0, "partition the control plane across this many controller shards (0: single controller with data plane)")
		debug   = flag.String("debug-addr", "", "serve Prometheus /metrics, pprof and trace-dump endpoints on this address (empty: disabled)")
		sample  = flag.Int("trace-sample", 0, "span tracing: sample one request in N (0 keeps the default, 1024; negative disables)")
	)
	flag.Parse()
	if err := checkFlags(*shards, *emulate); err != nil {
		log.Fatal(err)
	}

	// The daemon is the wall-clock edge: the registry timestamps trace
	// events with real time here (sim/chaos runs inject virtual clocks).
	reg := obs.New()
	reg.SetClock(func() int64 { return time.Now().UnixNano() })
	if *sample != 0 {
		reg.SetSpanSampling(*sample)
	}

	// A sharded plant serves the control plane only: the in-process data
	// plane assumes one controller owning every switch, so agents talk to
	// the dispatcher over the wire exactly as they would in a real
	// deployment.
	p, err := plant.New(plant.Spec{
		Topo:   topo.GenParams{K: *k, ClusterSize: 10, MBTypes: 3, Seed: 1},
		Shards: *shards,
		Obs:    reg,
	})
	if err != nil {
		log.Fatal(err)
	}
	if p.Disp != nil {
		defer p.Disp.Close()
		log.Printf("softcelld: %d base stations across %d controller shards", len(p.Stations), *shards)
	} else {
		for _, ag := range p.Net.Agents {
			ag.Instrument(reg)
		}
		log.Printf("softcelld: %d base stations, %d switches, %d middlebox instances",
			len(p.Stations), len(p.Topo.Nodes), len(p.Topo.MBoxes))
	}
	srv := p.Server()
	serveDebug(*debug, reg)
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("softcelld: control channel on %s", ln.Addr())
	go func() {
		if err := srv.Serve(ln); err != nil {
			log.Printf("serve: %v", err)
		}
	}()

	if *emulate > 0 {
		for a := 0; a < *emulate; a++ {
			bs := p.Stations[a%len(p.Stations)]
			cl, err := ctrlproto.Dial("tcp", ln.Addr().String())
			if err != nil {
				log.Fatal(err)
			}
			if err := cl.Hello(bs); err != nil {
				log.Fatal(err)
			}
			cl.Reporter = p.Net.Agents[bs].LocationReport
			defer cl.Close()
		}
		log.Printf("softcelld: %d emulated agents connected", *emulate)
		for i := 0; i < *ues; i++ {
			imsi := fmt.Sprintf("emu-%d", i)
			if err := p.Ctrl.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"}); err != nil {
				log.Fatal(err)
			}
			if _, err := p.Net.Attach(imsi, p.Stations[i%len(p.Stations)]); err != nil {
				log.Fatal(err)
			}
		}
		log.Printf("softcelld: %d subscribers attached", *ues)
		// Warm one policy path per emulated station to show the data plane.
		web, _ := p.Policy.Match(policy.Attributes{Provider: "A"}, policy.AppWeb)
		for a := 0; a < *emulate; a++ {
			if _, err := p.Ctrl.RequestPath(p.Stations[a%len(p.Stations)], web); err != nil {
				log.Fatal(err)
			}
		}
		st := p.Ctrl.Installer.Stats()
		log.Printf("softcelld: %d policy paths, %d rules, %d tags installed",
			st.Paths, st.Rules, st.TagsAllocated)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	log.Println("softcelld: shutting down")
}
