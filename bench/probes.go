package main

// Isolated per-layer probes. They run at the end of a traced run, after the
// correctness gate, against the workload's own warm plant wherever it has
// the layer; for the layers it lacks (no wire on forward_plain, no data
// plane on city_churn, ...) a standard small plant is built, so every
// per-layer metric is measured on every workload. All timings are taken
// from outside the layer, as medians: calls of a microsecond or more are
// timed one by one, shorter ones in batches (the clock costs ~20 ns).
//
// Probes mutate the plant (probe subscribers, withdrawn and reinstalled
// paths), which is why they come last and nothing is measured after them.

import (
	"fmt"
	"net"
	"sort"
	"sync/atomic"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/ctrlproto"
	"repro/internal/dataplane"
	"repro/internal/fastpath"
	"repro/internal/mbox"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/routing"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/switchsim"
	"repro/internal/topo"
	"repro/internal/workload"
)

const (
	probeCalls   = 1000 // calls behind a one-by-one median
	probeBatches = 41   // batches behind a batched median
	probeBatch   = 500  // calls per batch
	// probeSlowCalls bounds probes whose single call runs towards a
	// millisecond (full resyncs, agent views of a big table).
	probeSlowCalls = 200
)

// perCall times each of n calls on its own and returns the median, in ns.
func perCall(n int, fn func(i int) error) (float64, error) {
	d := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := clock()
		if err := fn(i); err != nil {
			return 0, err
		}
		d = append(d, float64(clock()-t0))
	}
	return median(d), nil
}

// batched times probeBatches batches of size calls and returns the median
// per-call time, in ns. i counts calls across batches.
func batched(size int, fn func(i int) error) (float64, error) {
	d := make([]float64, 0, probeBatches)
	i := 0
	for b := 0; b < probeBatches; b++ {
		t0 := clock()
		for j := 0; j < size; j++ {
			if err := fn(i); err != nil {
				return 0, err
			}
			i++
		}
		d = append(d, float64(clock()-t0)/float64(size))
	}
	return median(d), nil
}

// prober carries the probe targets and collects values and notes.
type prober struct {
	*layerInputs
	cfg   runConfig
	notes []string
	err   error
	// calls and slow are probeCalls and probeSlowCalls scaled by --seconds
	// (toy-scale test runs take fewer samples).
	calls, slow int
	closers     []func() // stand-in plants to tear down, in build order

	// The controller the core.* probes run on and its stations: the network
	// plant's own controller on the network workloads, shard 0's on the
	// control workloads.
	coreCtrl     *core.Controller
	coreStations []packet.BSID
	coreClauses  []int
	ownNet       bool

	// probeCounts is the stand-in wire's transport counter (nil when the
	// workload brought its own wire and its own counts).
	probeCounts *wireCounters
}

// us and ns store a probe's median under a metric name, once, keeping the
// first error.
func (p *prober) store(name string, scale float64, v float64, err error) {
	if p.err == nil && err != nil {
		p.err = fmt.Errorf("%s: %w", name, err)
	}
	p.values[name] = v / scale
}
func (p *prober) us(name string) func(float64, error) {
	return func(v float64, err error) { p.store(name, 1e3, v, err) }
}
func (p *prober) ns(name string) func(float64, error) {
	return func(v float64, err error) { p.store(name, 1, v, err) }
}

// runProbes fills every probe-measured per-layer metric of in.values.
func runProbes(in *layerInputs, cfg runConfig) ([]string, error) {
	p := &prober{layerInputs: in, cfg: cfg, ownNet: in.net != nil,
		calls: cfg.scaled(probeCalls, 16), slow: cfg.scaled(probeSlowCalls, 8)}
	if err := p.standIns(); err != nil {
		return nil, err
	}
	if p.ownNet {
		p.coreCtrl, p.coreClauses = in.net.net.Ctrl, allowClauses(in.net.net.Ctrl.Policy)
		for bs := 0; bs < in.net.stations; bs++ {
			p.coreStations = append(p.coreStations, packet.BSID(bs))
		}
	} else {
		s := in.ctrl.d.Shards()[0]
		p.coreCtrl, p.coreClauses = s.Ctrl, in.ctrl.clauses
		p.coreStations = append(p.coreStations, s.Stations...)
		sort.Slice(p.coreStations, func(i, j int) bool { return p.coreStations[i] < p.coreStations[j] })
	}
	p.standalone()
	p.dataplaneProbes()
	p.agentProbes()
	p.shardProbes()
	p.wireProbes()
	p.coreProbes() // last: it withdraws and reinstalls policy paths
	for i := len(p.closers) - 1; i >= 0; i-- {
		p.closers[i]()
	}
	return p.notes, p.err
}

// standIns builds the standard small plants for the layers the workload's
// own plant lacks.
func (p *prober) standIns() error {
	if p.net == nil {
		np, err := newNetPlant(nil)
		if err != nil {
			return err
		}
		if p.flows, err = populate(np, "std", fwdUEsPerStation, fwdFlowsPerUE, goldPlan); err != nil {
			return err
		}
		np.enableFastPath()
		p.net = np
		p.closers = append(p.closers, np.close)
		p.notes = append(p.notes, "dataplane / fastpath / agent / switchsim / mbox probes ran on a stand-in 48-station network plant (this workload has no data plane)")
	}
	if p.ctrl == nil {
		initial := make([]int, 1000)
		for i := range initial {
			initial[i] = i % smallStations
		}
		cp, err := newCtrlPlant(ctrlPlantSpec{k: smallK, c: smallC, subscribers: 2000, initial: initial})
		if err != nil {
			return err
		}
		p.ctrl = cp
		p.closers = append(p.closers, cp.close)
		p.notes = append(p.notes, "shard / ctrlproto / store probes ran on a stand-in 48-station, 2-shard control plant (this workload has no dispatcher)")
	}
	if p.wire == nil {
		// One connection onto the plant's dispatcher, through the timing
		// decorator; every station maps to decorator slot 0.
		p.deco = &tracedControlPlane{inner: p.ctrl.d, slotOf: make([]int, p.ctrl.stations),
			cur: make([]opRef, 1), logBase: logProbeSrv, lastNS: make([]atomic.Int64, 1)}
		var counts wireCounters
		wp, err := newWirePlant(p.ctrl, p.deco, 1, func(c net.Conn) net.Conn { return countingConn{c, &counts} })
		if err != nil {
			return err
		}
		p.wire = wp
		p.closers = append(p.closers, wp.closeWire)
		p.probeCounts = &counts
	}
	return nil
}

// standalone probes need no plant.
func (p *prober) standalone() {
	st := workload.NewStream(cityWorkloadParams(p.cfg.seed))
	st.InitialPopulation()
	p.us("workload.gen_us_per_simsec")(perCall(p.calls, func(int) error { st.Next(); return nil }))

	gen, err := perCall(15, func(int) error { _, err := genTopology(p.k, p.c); return err })
	p.store("topo.generate_ms", 1e6, gen, err)

	g, err := genTopology(p.k, p.c)
	if err != nil {
		p.err = err
		return
	}
	pl := routing.NewPlanner(g.Topology)
	chains := [][]topo.MBType{{0}, {0, 1}, {0, 2}, {}}
	p.us("routing.plan_us")(perCall(p.calls, func(i int) error {
		_, err := pl.Plan(packet.BSID(i%len(g.Stations)), chains[i%len(chains)], g.GatewayID)
		return err
	}))

	pol := benchPolicy()
	attrs := make([]policy.Attributes, 48)
	for i := range attrs {
		attrs[i] = subscriberAttr(i)
	}
	p.us("policy.compile_us")(perCall(p.calls, func(i int) error { pol.Compile(attrs[i%len(attrs)]); return nil }))
	p.ns("policy.match_ns")(batched(probeBatch, func(i int) error {
		pol.Match(attrs[i%len(attrs)], policy.AllApps[i%len(policy.AllApps)])
		return nil
	}))

	kv := store.New(storeReplicas)
	keys := make([]string, p.calls)
	val := make([]byte, 96) // about one encoded UE record
	for i := range keys {
		keys[i] = fmt.Sprintf("ue/probe-%06d", i)
	}
	p.us("store.put_us")(perCall(p.calls, func(i int) error { _, err := kv.Put(keys[i], val); return err }))
	p.ns("store.get_ns")(batched(probeBatch, func(i int) error { kv.Get(keys[i%len(keys)]); return nil }))

	pk := packet.Packet{Src: packet.AddrFrom4(10, 0, 16, 1), Dst: packet.AddrFrom4(203, 0, 113, 9),
		SrcPort: 4321, DstPort: 80, Proto: packet.ProtoTCP, TTL: 64}
	wire, err := pk.MarshalBinary()
	if err != nil {
		p.err = err
		return
	}
	p.ns("packet.marshal_ns")(batched(probeBatch, func(int) error { _, err := pk.MarshalBinary(); return err }))
	var back packet.Packet
	p.ns("packet.unmarshal_ns")(batched(probeBatch, func(int) error { return back.UnmarshalBinary(wire) }))

	var sw *switchsim.Switch
	p.ns("switchsim.install_ns")(batched(probeBatch, func(i int) error {
		if i%probeBatch == 0 {
			sw = switchsim.NewSwitch("probe")
		}
		sw.Install(switchsim.PrioPrefix+24, switchsim.Match{InPort: switchsim.AnyPort,
			Dst: packet.NewPrefix(packet.Addr(0x0A000000+uint32(i%probeBatch)<<8), 24)}, switchsim.Action{Output: 1})
		return nil
	}))

	fw, tc := mbox.NewFirewall(0), mbox.NewTranscoder(1)
	open := pk
	fw.Process(&open, mbox.Upstream)
	open = pk
	tc.Process(&open, mbox.Upstream)
	p.ns("mbox.firewall_ns")(batched(probeBatch, func(int) error { q := pk; fw.Process(&q, mbox.Upstream); return nil }))
	p.ns("mbox.transcoder_ns")(batched(probeBatch, func(int) error { q := pk; tc.Process(&q, mbox.Upstream); return nil }))
}

// busiest returns the station with the most established flows.
func (p *prober) busiest() packet.BSID {
	best := 0
	for bs := range p.flows {
		if len(p.flows[bs]) > len(p.flows[best]) {
			best = bs
		}
	}
	return packet.BSID(best)
}

// dataplaneProbes: single-packet walks, bursts, resync, snapshot compile
// and warm, on established middlebox-free flows.
func (p *prober) dataplaneProbes() {
	n := p.net.net
	bs := p.busiest()
	flows := p.flows[bs]
	if len(flows) == 0 {
		p.err = fmt.Errorf("dataplane probes: no established middlebox-free flows")
		return
	}
	m0 := mallocCount()
	var sent int
	up, err := batched(256, func(i int) error {
		q := flows[i%len(flows)].up
		res, err := n.SendUpstream(bs, &q)
		if err == nil && res.Disposition != dataplane.ExitedNet {
			err = fmt.Errorf("probe packet ended %s", res.Disposition)
		}
		sent++
		return err
	})
	p.ns("dataplane.single_up_ns_per_pkt")(up, err)
	p.ns("dataplane.down_ns_per_pkt")(batched(256, func(i int) error {
		q := flows[i%len(flows)].down
		res, err := n.SendDownstream(&q)
		if err == nil && res.Disposition != dataplane.Delivered {
			err = fmt.Errorf("probe packet ended %s", res.Disposition)
		}
		sent++
		return err
	}))
	p.values["dataplane.allocs_per_pkt"] = float64(mallocCount()-m0) / float64(sent)

	sw := n.Switches[p.net.accessOf(bs)]
	var hopsTotal, pkts int64
	sender, err := n.NewBurstSender()
	if err != nil {
		p.err = err
		return
	}
	for _, burst := range []int{1, 32, 128} {
		backing := make([]packet.Packet, burst)
		ptrs := make([]*packet.Packet, burst)
		for i := range ptrs {
			ptrs[i] = &backing[i]
		}
		var out []dataplane.BurstOutcome
		cur := 0
		perBurst, err := batched(4096/burst, func(int) error {
			for j := range backing {
				backing[j] = flows[cur].up
				if cur++; cur == len(flows) {
					cur = 0
				}
			}
			var err error
			if out, err = sender.Send(bs, ptrs, out); err != nil {
				return err
			}
			for j := range out {
				if out[j].Disposition != dataplane.ExitedNet || out[j].Slow {
					return fmt.Errorf("probe burst packet ended %s (slow=%v)", out[j].Disposition, out[j].Slow)
				}
				hopsTotal += int64(out[j].Hops)
			}
			pkts += int64(burst)
			return nil
		})
		p.ns(fmt.Sprintf("fastpath.burst%d_ns_per_pkt", burst))(perBurst/float64(burst), err)
	}
	if p.values["dataplane.single_up_ns_per_pkt"] > 0 {
		p.values["fastpath.burst1_vs_single"] = p.values["fastpath.burst1_ns_per_pkt"] / p.values["dataplane.single_up_ns_per_pkt"]
	}
	if _, ok := p.values["dataplane.hops_per_pkt"]; !ok && pkts > 0 {
		p.values["dataplane.hops_per_pkt"] = float64(hopsTotal) / float64(pkts)
	}

	p.us("dataplane.sync_us")(perCall(p.slow, func(int) error { return n.Sync() }))
	p.us("fastpath.compile_us")(perCall(p.slow, func(int) error { fastpath.Compile(sw); return nil }))
	p.notes = append(p.notes, fmt.Sprintf("fastpath.compile_us compiled the access switch of station %d: %d TCAM rules, %d microflows",
		bs, sw.NumRules(), sw.NumMicroflows()))
	fnet := n.FastEngine().Net()
	p.us("fastpath.warm_us")(perCall(p.slow, func(int) error {
		// One invalidation: a rule goes in and out, the generation moves.
		id := sw.Install(1, switchsim.Match{InPort: switchsim.AnyPort, Dst: packet.NewPrefix(packet.AddrFrom4(192, 0, 2, 1), 32)}, switchsim.DropAction())
		sw.Remove(id)
		fnet.Warm()
		return nil
	}))
	q := flows[0].up
	p.ns("switchsim.process_ns")(batched(probeBatch, func(int) error {
		r := q
		sw.Process(&r, switchsim.PortUE)
		return nil
	}))

	// Attach and handoff choreography (controller + agents + resync).
	imsis, err := registerPool(p.net, "probe-dp", p.slow, goldPlan)
	if err != nil {
		p.err = err
		return
	}
	other := packet.BSID((int(bs) + p.net.stations/2) % p.net.stations)
	p.us("dataplane.attach_us")(perCall(len(imsis), func(i int) error { _, err := n.Attach(imsis[i], bs); return err }))
	p.us("dataplane.handoff_us")(perCall(len(imsis), func(i int) error {
		hr, err := n.Handoff(imsis[i], other)
		if err == nil {
			n.Ctrl.ReleaseOldLocIP(hr.OldLocIP, hr.Shortcuts)
		}
		return err
	}))
	v, _ := n.MiddleboxStats()
	p.values["mbox.violations"] = float64(v)
}

// agentProbes run on two agents the benchmark builds itself, on scratch
// switches, talking to the network plant's controller through the timing
// decorator (tracedClient).
func (p *prober) agentProbes() {
	ctrl := p.net.net.Ctrl
	bsA, bsB := packet.BSID(1), packet.BSID(1+p.net.stations/2)
	const ues = 256
	imsis, err := registerPool(p.net, "probe-ag", ues, func(int) string { return "silver" })
	if err != nil {
		p.err = err
		return
	}
	client := &tracedClient{inner: ctrl}
	ag := agent.New(bsA, switchsim.NewSwitch("probe-as-a"), ctrl.Plan(), client)
	ag2 := agent.New(bsB, switchsim.NewSwitch("probe-as-b"), ctrl.Plan(), client)
	// Warm the web clause's path at A so attach returns pinned tags.
	webClause, ok := ctrl.Policy.Match(policy.Attributes{Provider: "A", Plan: "silver"}, policy.AppWeb)
	if !ok {
		p.err = fmt.Errorf("agent probes: the policy has no web clause for a silver subscriber")
		return
	}
	if _, err := ctrl.RequestPath(bsA, webClause); err != nil {
		p.err = err
		return
	}
	recs := make([]core.UE, ues)
	cls := make([][]core.Classifier, ues)
	for i, imsi := range imsis {
		if recs[i], cls[i], err = ctrl.Attach(imsi, bsA); err != nil {
			p.err = err
			return
		}
	}
	p.us("agent.admit_us")(perCall(p.calls, func(i int) error { return ag.AdmitUE(recs[i%ues], cls[i%ues]) }))

	pkt := func(i int) packet.Packet {
		return packet.Packet{Src: recs[i%ues].PermIP, Dst: packet.AddrFrom4(203, 0, 113, 7),
			SrcPort: uint16(10000 + i/ues), DstPort: 80, Proto: packet.ProtoTCP, TTL: 64}
	}
	first0 := pkt(0)
	p.ns("agent.classify_ns")(batched(probeBatch, func(int) error { ag.Classify(&first0); return nil }))

	view, err := ctrl.AgentView(bsA)
	if err != nil {
		p.err = err
		return
	}
	p.us("agent.publish_us")(perCall(p.slow, func(int) error {
		_, err := ag.Publish(agent.NewSnapshot(ag.Version()+1, view))
		return err
	}))
	p.notes = append(p.notes, fmt.Sprintf("agent.publish_us published a snapshot of %d UEs", len(view.UEs)))

	p.us("agent.packet_in_hit_us")(perCall(p.calls, func(i int) error {
		q := pkt(i)
		ok, err := ag.HandlePacketIn(&q)
		if err == nil && !ok {
			err = fmt.Errorf("probe flow denied")
		}
		return err
	}))
	before := client.calls
	miss, err := perCallPrepared(p.calls, func(i int) error {
		// A tag-0 classifier withdraws the station's admitted tag, so the
		// next flow of the clause goes back to the controller.
		return ag.UpdateClassifiers(recs[i%ues].PermIP, []core.Classifier{{App: policy.AppWeb, Clause: webClause, Allow: true}})
	}, func(i int) error {
		q := pkt(p.calls + i)
		_, err := ag.HandlePacketIn(&q)
		return err
	})
	p.us("agent.packet_in_miss_us")(miss, err)
	if asked := client.calls - before; asked > 0 {
		p.notes = append(p.notes, fmt.Sprintf("agent.packet_in_miss_us: %d controller round trips, %.2f us each inside the controller client (agent self time is the rest)",
			asked, float64(client.ns)/float64(asked)/1e3))
	}

	// Migration: each UE now has about eight flows at A; move them to B.
	var oldLoc packet.Addr
	p.us("agent.migrate_flows_us")(perCallPrepared(ues, func(i int) error {
		hr, err := ctrl.Handoff(imsis[i], bsB)
		if err != nil {
			return err
		}
		recs[i] = hr.UE
		cls[i] = hr.Classifiers
		oldLoc = hr.OldLocIP
		return ag2.AdmitUE(hr.UE, hr.Classifiers)
	}, func(i int) error {
		err := ag.MigrateFlows(ag2, recs[i], oldLoc)
		ctrl.ReleaseOldLocIP(oldLoc, nil)
		return err
	}))
	if _, ok := p.values["agent.cache_hit_ratio"]; !ok {
		s := ag.Stats()
		p.values["agent.cache_hit_ratio"] = float64(s.CacheHits) / float64(s.CacheHits+s.CacheMiss)
	}
}

// perCallPrepared is perCall with an untimed preparation step before each
// timed call.
func perCallPrepared(n int, prep, fn func(i int) error) (float64, error) {
	d := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if err := prep(i); err != nil {
			return 0, err
		}
		t0 := clock()
		if err := fn(i); err != nil {
			return 0, err
		}
		d = append(d, float64(clock()-t0))
	}
	return median(d), nil
}

// shardProbes go through the dispatcher: queue, admission, UE directory,
// two-phase cross-shard handoff.
func (p *prober) shardProbes() {
	d := p.ctrl.d
	n := p.ctrl.stations
	owner := make([]*shard.Shard, n)
	for bs := range owner {
		s, err := d.ShardOf(packet.BSID(bs))
		if err != nil {
			p.err = err
			return
		}
		owner[bs] = s
	}
	// nextOn[bs][0] is the next station on bs's shard, [1] on another.
	next := func(bs int, same bool) int {
		for i := 1; i < n; i++ {
			if o := (bs + i) % n; (owner[o] == owner[bs]) == same {
				return o
			}
		}
		return -1
	}
	clauses := p.ctrl.clauses
	p.us("shard.request_path_us")(batched(200, func(i int) error {
		_, err := d.RequestPath(packet.BSID(i%n), clauses[i%len(clauses)])
		return err
	}))
	imsis := make([]string, p.calls)
	for i := range imsis {
		imsis[i] = fmt.Sprintf("probe-shard-%05d", i)
	}
	p.us("shard.register_us")(perCall(p.calls, func(i int) error { return d.RegisterSubscriber(imsis[i], subscriberAttr(i)) }))
	p.us("shard.attach_us")(perCall(p.calls, func(i int) error { _, _, err := d.Attach(imsis[i], packet.BSID(i%n)); return err }))
	at := make([]int, p.calls)
	for i := range at {
		at[i] = i % n
	}
	move := func(same bool) func(i int) error {
		return func(i int) error {
			dst := next(at[i], same)
			if dst < 0 {
				return fmt.Errorf("no handoff target from station %d", at[i])
			}
			hr, err := d.Handoff(imsis[i], packet.BSID(dst))
			if err != nil {
				return err
			}
			at[i] = dst
			if same && hr.OldLocIP != 0 {
				owner[dst].Ctrl.ReleaseOldLocIP(hr.OldLocIP, nil)
			}
			return nil
		}
	}
	p.us("shard.handoff_local_us")(perCall(p.calls, move(true)))
	p.us("shard.handoff_cross_us")(perCall(p.calls, move(false)))
	p.us("shard.agent_view_us")(perCall(p.slow, func(i int) error { _, err := d.AgentView(packet.BSID(i % n)); return err }))
	p.us("shard.detach_us")(perCall(p.calls, func(i int) error { return d.Detach(imsis[i]) }))

	served := d.Served()
	var max, sum uint64
	for _, s := range served {
		sum += s
		if s > max {
			max = s
		}
	}
	if sum > 0 {
		p.values["shard.served_imbalance"] = float64(max) / (float64(sum) / float64(len(served)))
	}
}

// wireProbes: one connection, one request in flight, so an RTT is pure
// wire + serve, and client RTT minus the decorator's server-side span is
// the wire's own time.
func (p *prober) wireProbes() {
	cl := p.wire.clients[0]
	slot, stations := 0, p.ctrl.stations
	if p.probeCounts == nil {
		// wire_storm's own plant: stay inside slot 0's station window, which
		// is what its decorator maps to slot 0.
		stations = smallStations / len(p.deco.cur)
	}
	clauses := p.ctrl.clauses
	payload := make([]byte, 8)
	p.us("ctrlproto.echo_rtt_us")(perCall(2*p.calls, func(int) error { _, err := cl.Echo(payload); return err }))

	var counts0 [3]int64
	if p.probeCounts != nil {
		counts0 = [3]int64{p.probeCounts.writes.Load(), p.probeCounts.bytesOut.Load(), p.probeCounts.bytesIn.Load()}
	}
	rtts := make([]float64, 0, 2*p.calls)
	selfs := make([]float64, 0, 2*p.calls)
	m0 := mallocCount()
	for i := 0; i < 2*p.calls; i++ {
		t0 := clock()
		_, err := cl.RequestPath(packet.BSID(i%stations), clauses[i%len(clauses)])
		rtt := clock() - t0
		if err != nil {
			p.err = fmt.Errorf("ctrlproto.path_rtt_us: %w", err)
			return
		}
		rtts = append(rtts, float64(rtt))
		selfs = append(selfs, float64(rtt-p.deco.lastNS[slot].Load()))
	}
	p.values["ctrlproto.allocs_per_req"] = float64(mallocCount()-m0) / float64(2*p.calls)
	p.values["ctrlproto.path_rtt_us"] = median(rtts) / 1e3
	p.values["ctrlproto.wire_self_us"] = median(selfs) / 1e3
	if p.probeCounts != nil {
		reqs := float64(2 * p.calls)
		p.values["ctrlproto.writes_per_req"] = float64(p.probeCounts.writes.Load()-counts0[0]) / reqs
		p.values["ctrlproto.bytes_per_req"] = float64(p.probeCounts.bytesOut.Load()-counts0[1]+p.probeCounts.bytesIn.Load()-counts0[2]) / reqs
	}

	// Snapshot push to the connection's station, with an Echo as the
	// publish barrier (the client handles the push before the echo reply).
	view, err := p.ctrl.d.AgentView(0)
	if err != nil {
		p.err = err
		return
	}
	pushed0 := p.wire.pushes.Load()
	p.us("ctrlproto.push_snapshot_us")(perCall(p.slow, func(i int) error {
		if n, err := p.wire.srv.PushSnapshot(ctrlproto.SnapshotNotify{Version: uint64(i + 1), View: view}); err != nil || n == 0 {
			return fmt.Errorf("push reached %d connections: %v", n, err)
		}
		_, err := cl.Echo(nil)
		return err
	}))
	if got := p.wire.pushes.Load() - pushed0; got != int64(p.slow) {
		p.err = fmt.Errorf("ctrlproto.push_snapshot_us: %d of %d pushes arrived before their barrier", got, p.slow)
	}
	p.notes = append(p.notes, fmt.Sprintf("ctrlproto.push_snapshot_us pushed a view of %d UEs", len(view.UEs)))
	if _, ok := p.values["ctrlproto.errors"]; !ok {
		p.values["ctrlproto.errors"] = 0
	}
}

// coreProbes call one controller directly, below the dispatcher.
func (p *prober) coreProbes() {
	c, stations, clauses := p.coreCtrl, p.coreStations, p.coreClauses
	p.ns("core.request_path_hit_ns")(batched(probeBatch, func(i int) error {
		_, err := c.RequestPath(stations[i%len(stations)], clauses[i%len(clauses)])
		return err
	}))
	if p.values["shard.request_path_us"] > 0 {
		p.values["shard.queue_overhead_us"] = p.values["shard.request_path_us"] - p.values["core.request_path_hit_ns"]/1e3
	}
	imsis := make([]string, p.calls)
	for i := range imsis {
		imsis[i] = fmt.Sprintf("probe-core-%05d", i)
	}
	p.us("core.register_us")(perCall(p.calls, func(i int) error { return c.RegisterSubscriber(imsis[i], subscriberAttr(i)) }))
	p.us("core.attach_us")(perCall(p.calls, func(i int) error { _, _, err := c.Attach(imsis[i], stations[i%len(stations)]); return err }))
	olds := make([]packet.Addr, p.calls)
	p.us("core.handoff_us")(perCall(p.calls, func(i int) error {
		hr, err := c.Handoff(imsis[i], stations[(i+1)%len(stations)])
		olds[i] = hr.OldLocIP
		return err
	}))
	for _, loc := range olds {
		c.ReleaseOldLocIP(loc, nil)
	}
	p.us("core.agent_view_us")(perCall(p.slow, func(i int) error { _, err := c.AgentView(stations[i%len(stations)]); return err }))
	p.us("core.detach_us")(perCall(p.calls, func(i int) error { return c.Detach(imsis[i]) }))

	// Misses: withdraw a clause's paths, then ask for each station's again.
	var miss []float64
	for pass := 0; len(miss) < p.calls && pass < 8; pass++ {
		for _, cl := range clauses {
			if err := c.RemovePolicyPaths(cl); err != nil {
				p.err = fmt.Errorf("core.request_path_miss_us: %w", err)
				return
			}
			for _, bs := range stations {
				t0 := clock()
				if _, err := c.RequestPath(bs, cl); err != nil {
					p.err = fmt.Errorf("core.request_path_miss_us: %w", err)
					return
				}
				miss = append(miss, float64(clock()-t0))
			}
		}
	}
	p.values["core.request_path_miss_us"] = median(miss) / 1e3
	// The UE-table footprint of the workload's own controller(s).
	ms := c.MemStats()
	if !p.ownNet {
		ms = p.ctrl.d.MemStats()
	}
	if ms.Subscribers > 0 {
		p.values["core.table_bytes_per_subscriber"] = float64(ms.TableBytes()) / float64(ms.Subscribers)
	}
}
