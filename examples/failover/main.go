// Failover example: §5.2's control-plane failure handling. The controller's
// replicated store takes over on failure; UE locations — the only fast-
// changing state — are rebuilt by querying the local agents over the
// control channel; a local agent restart re-fetches its read-only state.
// Run with:
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"log"
	"net"

	softcell "repro"
	"repro/internal/ctrlproto"
	"repro/internal/packet"
	"repro/internal/policy"
)

func main() {
	nw, err := softcell.Example()
	if err != nil {
		log.Fatal(err)
	}

	// A real control channel: the controller serves the binary protocol
	// over TCP; each base station's agent connects as a client.
	srv := ctrlproto.NewServer(nw.Ctrl)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	// Serve returns when the listener closes at process exit.
	//lint:ignore errdrop the server lives until process exit
	go func() { _ = srv.Serve(ln) }()
	fmt.Printf("controller serving the control channel on %s\n", ln.Addr())

	clients := map[packet.BSID]*ctrlproto.Client{}
	for bs := packet.BSID(0); bs < 4; bs++ {
		cl, err := ctrlproto.Dial("tcp", ln.Addr().String())
		if err != nil {
			log.Fatal(err)
		}
		if err := cl.Hello(bs); err != nil {
			log.Fatal(err)
		}
		ag := nw.Agents[bs]
		cl.Reporter = ag.LocationReport // answers recovery queries
		clients[bs] = cl
	}

	// Attach a handful of subscribers through the wire protocol.
	for i := 0; i < 6; i++ {
		imsi := fmt.Sprintf("ue-%d", i)
		if err := nw.Ctrl.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"}); err != nil {
			log.Fatal(err)
		}
		bs := packet.BSID(i % 4)
		ue, cls, err := clients[bs].Attach(imsi, bs)
		if err != nil {
			log.Fatal(err)
		}
		if err := nw.Agents[bs].AdmitUE(ue, cls); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("6 subscribers attached over the wire")

	before, _ := nw.Ctrl.LookupUE("ue-3")

	// --- Controller failure ------------------------------------------------
	fmt.Println("\n*** primary controller store fails ***")
	newPrimary, err := nw.Ctrl.Store.Failover()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replica %q promoted; slow state (policy, subscribers, paths) intact:\n", newPrimary.Name())
	fmt.Printf("  store keys: %d subscriber, %d path (no UE location is stored)\n",
		len(nw.Ctrl.Store.Keys("sub/")), len(nw.Ctrl.Store.Keys("path/")))

	// UE locations are the fast state: rebuild them from the live agents,
	// the only place they are kept.
	answered, err := srv.QueryLocations()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("location recovery used agent reports alone: %d agents answered, %d UEs rebuilt\n",
		answered, len(nw.Ctrl.UEs()))
	after, ok := nw.Ctrl.LookupUE("ue-3")
	if !ok || after.LocIP != before.LocIP {
		log.Fatalf("recovery mismatch: %+v vs %+v", after, before)
	}
	fmt.Printf("ue-3 recovered at base station %d with LocIP %s (unchanged)\n", after.BS, after.LocIP)

	// The recovered controller keeps serving: a brand-new attach works.
	if err := nw.Ctrl.RegisterSubscriber("late", policy.Attributes{Provider: "A"}); err != nil {
		log.Fatal(err)
	}
	ue, _, err := clients[1].Attach("late", 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("post-failover attach: %s got LocIP %s\n", ue.IMSI, ue.LocIP)

	// --- Local agent failure ------------------------------------------------
	fmt.Println("\n*** local agent at station 0 restarts ***")
	nw.Agents[0].Restart()
	fmt.Printf("agent state after restart: %d UEs cached\n", nw.Agents[0].NumUEs())
	// The agent's state is read-only (§5.2): the controller simply pushes
	// it again for each of the station's UEs.
	restored := 0
	for i := 0; i < 6; i++ {
		imsi := fmt.Sprintf("ue-%d", i)
		rec, ok := nw.Ctrl.LookupUE(imsi)
		if !ok || rec.BS != 0 {
			continue
		}
		u2, cls, err := clients[0].Attach(imsi, 0)
		if err != nil {
			log.Fatal(err)
		}
		if err := nw.Agents[0].AdmitUE(u2, cls); err != nil {
			log.Fatal(err)
		}
		if u2.LocIP != rec.LocIP {
			log.Fatalf("re-push changed the LocIP: %s vs %s", u2.LocIP, rec.LocIP)
		}
		restored++
	}
	fmt.Printf("controller re-pushed state for %d UE(s); addresses unchanged\n", restored)
	fmt.Println("\nfailures handled: the impact was local and no data-plane state was lost")
}
