// softcelld runs a SoftCell controller serving the binary control channel
// over TCP, with the full data plane assembled in-process. It demonstrates
// the deployable control plane: external agents (or the bundled emulation)
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

	softcell "repro"
	"repro/internal/ctrlproto"
	"repro/internal/obs"
	"repro/internal/packet"
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

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:9444", "control channel listen address")
		k       = flag.Int("k", 4, "generated topology parameter")
		emulate = flag.Int("emulate-agents", 0, "spawn this many wire-connected emulated agents")
		ues     = flag.Int("ues", 100, "emulated subscribers to attach (with -emulate-agents)")
		shards  = flag.Int("shards", 0, "partition the control plane across this many controller shards (0: single controller with data plane)")
		debug   = flag.String("debug-addr", "", "serve Prometheus /metrics, pprof and trace-dump endpoints on this address (empty: disabled)")
		sample  = flag.Int("trace-sample", 0, "span tracing: sample one request in N (0 keeps the default, 1024; negative disables)")
	)
	flag.Parse()

	// The daemon is the wall-clock edge: the registry timestamps trace
	// events with real time here (sim/chaos runs inject virtual clocks).
	reg := obs.New()
	reg.SetClock(func() int64 { return time.Now().UnixNano() })
	if *sample != 0 {
		reg.SetSpanSampling(*sample)
	}

	if *shards > 0 {
		// Sharded mode serves the control plane only: the in-process data
		// plane assumes one controller owning every switch, so agents talk
		// to the dispatcher over the wire exactly as they would in a real
		// deployment.
		p, err := plant.New(plant.Spec{
			Topo:   topo.GenParams{K: *k, ClusterSize: 10, MBTypes: 3, Seed: 1},
			Shards: *shards,
			Obs:    reg,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer p.Disp.Close()
		srv := p.Server()
		serveDebug(*debug, reg)
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("softcelld: %d base stations across %d controller shards", len(p.Stations), *shards)
		log.Printf("softcelld: control channel on %s", ln.Addr())
		go func() {
			if err := srv.Serve(ln); err != nil {
				log.Printf("serve: %v", err)
			}
		}()
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
		log.Println("softcelld: shutting down")
		return
	}

	g, err := softcell.GenerateTopology(*k, 10, 3, 1)
	if err != nil {
		log.Fatal(err)
	}
	nw, err := softcell.New(softcell.Options{
		Topology: g.Topology,
		Gateway:  g.GatewayID,
		Policy:   policy.ExampleCarrierPolicy(),
		Replicas: 2,
		Obs:      reg,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, ag := range nw.Agents {
		ag.Instrument(reg)
	}
	srv := ctrlproto.NewServer(nw.Ctrl)
	srv.Instrument(reg)
	serveDebug(*debug, reg)
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("softcelld: %d base stations, %d switches, %d middlebox instances",
		len(g.Stations), len(g.Nodes), len(g.MBoxes))
	log.Printf("softcelld: control channel on %s", ln.Addr())
	go func() {
		if err := srv.Serve(ln); err != nil {
			log.Printf("serve: %v", err)
		}
	}()

	if *emulate > 0 {
		for a := 0; a < *emulate; a++ {
			bs := packet.BSID(a % len(g.Stations))
			cl, err := ctrlproto.Dial("tcp", ln.Addr().String())
			if err != nil {
				log.Fatal(err)
			}
			if err := cl.Hello(bs); err != nil {
				log.Fatal(err)
			}
			ag := nw.Agents[bs]
			cl.Reporter = ag.LocationReport
			defer cl.Close()
		}
		log.Printf("softcelld: %d emulated agents connected", *emulate)
		for i := 0; i < *ues; i++ {
			imsi := fmt.Sprintf("emu-%d", i)
			if err := nw.Ctrl.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"}); err != nil {
				log.Fatal(err)
			}
			if _, err := nw.Attach(imsi, packet.BSID(i%len(g.Stations))); err != nil {
				log.Fatal(err)
			}
		}
		log.Printf("softcelld: %d subscribers attached", *ues)
		// Warm one policy path per emulated station to show the data plane.
		web, _ := nw.Ctrl.Policy.Match(policy.Attributes{Provider: "A"}, policy.AppWeb)
		for a := 0; a < *emulate; a++ {
			if _, err := nw.Ctrl.RequestPath(packet.BSID(a%len(g.Stations)), web); err != nil {
				log.Fatal(err)
			}
		}
		st := nw.Ctrl.Installer.Stats()
		log.Printf("softcelld: %d policy paths, %d rules, %d tags installed",
			st.Paths, st.Rules, st.TagsAllocated)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	log.Println("softcelld: shutting down")
}
