package main

// Every plant the benchmark drives is assembled in this file and nowhere
// else, through the public constructors (softcell.New, shard.New,
// ctrlproto.NewServer/Dial): when an internal/plant builder exists, this
// file is the one it replaces.
//
// The plants do not depend on --seed: topology, policy and subscriber
// attributes are fixed, so rule-table and memory numbers compare across
// seeds. Only the generated inputs (event streams, request mixes, packet
// schedules) vary with the seed.

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	softcell "repro"
	"repro/internal/core"
	"repro/internal/ctrlproto"
	"repro/internal/dataplane"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/shard"
	"repro/internal/topo"
)

// Plant shapes. Stations = C*K^3/4 on the §6.3 generated topology.
const (
	cityK, cityC   = 8, 3 // 384 stations
	smallK, smallC = 4, 3 // 48 stations, 81 nodes
	mbTypes        = 3    // firewall, transcoder, echo canceller
	plantShards    = 2
	// storeReplicas is each shard's §5.2 store replication, as the city
	// soak pins it.
	storeReplicas = 2
)

// benchMBTypes maps the policy's middlebox functions to topology types.
func benchMBTypes() map[string]topo.MBType {
	return map[string]topo.MBType{
		policy.MBFirewall: 0, policy.MBTranscoder: 1, policy.MBEchoCancel: 2,
	}
}

// genTopology builds the generated plant topology. The generator seed is
// fixed (it only places middleboxes); see the file comment.
func genTopology(k, c int) (*topo.Generated, error) {
	return topo.Generate(topo.GenParams{K: k, ClusterSize: c, MBTypes: mbTypes, Seed: 1})
}

// widePlan is the default address layout with the tag field widened to 12
// bits, so per-shard tag residue classes stay comfortable (cbench's city
// plan).
func widePlan() packet.Plan {
	pl := packet.DefaultPlan
	pl.TagBits = 12
	return pl
}

// allowClauses lists a policy's allow clauses in id order.
func allowClauses(pol *policy.Policy) []int {
	var out []int
	for id := 0; id < pol.Len(); id++ {
		if cl, ok := pol.Clause(id); ok && cl.Action.Allow {
			out = append(out, id)
		}
	}
	return out
}

// benchPolicy is the Table 1 carrier policy plus one higher-priority
// middlebox-free clause for plan "gold": gold flows cross no middlebox,
// so the burst fast path can carry them end to end; every other clause
// goes through a firewall and must take the slow path.
func benchPolicy() *policy.Policy {
	pol := policy.ExampleCarrierPolicy()
	pol.Add(policy.Clause{Priority: 70, Name: "gold-direct",
		Pred:   policy.And(policy.Attr(policy.FieldProvider, "A"), policy.Attr(policy.FieldPlan, "gold")),
		Action: policy.Via()})
	return pol
}

// subscriberAttr draws subscriber i's attributes from a small set of
// profiles that the Table 1 policy actually admits (providers A and B; a
// real population clusters onto few attribute sets, which is what the
// controller's intern pool relies on).
func subscriberAttr(i int) policy.Attributes {
	plans := [3]string{"gold", "silver", "bronze"}
	devices := [3]string{"phone", "tablet", "m2m-fleet"}
	attr := policy.Attributes{
		Provider:   "A",
		Plan:       plans[(i/4)%3],
		DeviceType: devices[(i/12)%3],
		Roaming:    i%17 == 0,
	}
	if i%4 == 3 {
		attr.Provider = "B"
	}
	return attr
}

// liveHeap returns the GC-settled live-heap size.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// ctrlPlant is a sharded control plane with its subscriber population
// registered, every (station, clause) path warmed and an initial attached
// population in place. city_churn drives it in-process; wire_storm puts a
// ctrlproto server in front of it.
type ctrlPlant struct {
	d        *shard.Dispatcher
	stations int
	clauses  []int
	imsis    []string // every registered subscriber
	// attachedAt[bs] lists attached subscriber indices; the tail is the
	// most recent arrival.
	attachedAt [][]int
	attached   int
}

// ctrlPlantSpec sizes a ctrlPlant. initial gives the station of each
// initially attached subscriber (subscriber i attaches at initial[i]).
type ctrlPlantSpec struct {
	k, c        int
	subscribers int
	initial     []int
	obs         *obs.Registry
}

func newCtrlPlant(spec ctrlPlantSpec) (*ctrlPlant, error) {
	g, err := genTopology(spec.k, spec.c)
	if err != nil {
		return nil, err
	}
	pol := policy.ExampleCarrierPolicy()
	d, err := shard.New(shard.Config{
		Topology: g.Topology,
		Gateway:  g.GatewayID,
		Policy:   pol,
		MBTypes:  benchMBTypes(),
		Shards:   plantShards,
		Replicas: storeReplicas,
		Plan:     widePlan(),
		Obs:      spec.obs,
	})
	if err != nil {
		return nil, err
	}
	p := &ctrlPlant{
		d:          d,
		stations:   len(g.Stations),
		clauses:    allowClauses(pol),
		imsis:      make([]string, spec.subscribers),
		attachedAt: make([][]int, len(g.Stations)),
	}
	for i := range p.imsis {
		p.imsis[i] = fmt.Sprintf("imsi-%07d", i)
		if err := d.RegisterSubscriber(p.imsis[i], subscriberAttr(i)); err != nil {
			d.Close()
			return nil, fmt.Errorf("register %s: %w", p.imsis[i], err)
		}
	}
	for bs := 0; bs < p.stations; bs++ {
		for _, c := range p.clauses {
			if _, err := d.RequestPath(packet.BSID(bs), c); err != nil {
				d.Close()
				return nil, fmt.Errorf("warm bs %d clause %d: %w", bs, c, err)
			}
		}
	}
	if len(spec.initial) > spec.subscribers {
		spec.initial = spec.initial[:spec.subscribers]
	}
	for ue, bs := range spec.initial {
		if _, _, err := d.Attach(p.imsis[ue], packet.BSID(bs)); err != nil {
			d.Close()
			return nil, fmt.Errorf("initial attach %s: %w", p.imsis[ue], err)
		}
		p.attachedAt[bs] = append(p.attachedAt[bs], ue)
	}
	p.attached = len(spec.initial)
	return p, nil
}

func (p *ctrlPlant) close() { p.d.Close() }

// ruleTable reports the hardware-switch rule-table occupancy across the
// plant's shards: the fullest switch (the paper's Fig. 7 quantity) and the
// median switch.
func (p *ctrlPlant) ruleTable() (max, median int) {
	return hardwareRules(shardCtrls(p.d))
}

func shardCtrls(d *shard.Dispatcher) []*core.Controller {
	var out []*core.Controller
	for _, s := range d.Shards() {
		out = append(out, s.Ctrl)
	}
	return out
}

// hardwareRules merges the per-switch hardware TCAM sizes of a set of
// controllers sharing one topology (shards each hold the rules of their own
// stations' paths; a switch's occupancy is the sum over shards).
func hardwareRules(ctrls []*core.Controller) (max, median int) {
	nodes := ctrls[0].T.Nodes
	var hw []int
	for i := range nodes {
		if nodes[i].Kind == topo.Access {
			continue
		}
		n := 0
		for _, c := range ctrls {
			n += c.Installer.FIB(topo.NodeID(i)).NumRules()
		}
		hw = append(hw, n)
	}
	return maxInt(hw), medianInt(hw)
}

// wirePlant is a ctrlPlant behind a ctrlproto server on the host loopback
// interface, with its client connections dialled and Hello'd.
type wirePlant struct {
	*ctrlPlant
	srv     *ctrlproto.Server
	ln      net.Listener
	clients []*ctrlproto.Client
	served  sync.WaitGroup
	// pushes counts the snapshot notifications the clients have received.
	pushes atomic.Int64
}

// newWirePlant serves cp (the dispatcher itself, or a decorator around it)
// on 127.0.0.1:0 and dials conns clients. wrap, when non-nil, wraps each
// dialled connection before the client takes it (the traced run's counting
// net.Conn).
func newWirePlant(p *ctrlPlant, cp ctrlproto.ControlPlane, conns int, wrap func(net.Conn) net.Conn) (*wirePlant, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w := &wirePlant{ctrlPlant: p, srv: ctrlproto.NewServer(cp), ln: ln}
	w.served.Add(1)
	go func() {
		defer w.served.Done()
		//lint:ignore errdrop Serve always returns the listener's close error; closeWire is what closes it
		_ = w.srv.Serve(ln)
	}()
	for i := 0; i < conns; i++ {
		raw, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			w.closeWire()
			return nil, err
		}
		if wrap != nil {
			raw = wrap(raw)
		}
		cl := ctrlproto.NewClient(raw)
		cl.OnSnapshot = func(ctrlproto.SnapshotNotify) error {
			w.pushes.Add(1)
			return nil
		}
		w.clients = append(w.clients, cl)
		if err := cl.Hello(packet.BSID(i)); err != nil {
			w.closeWire()
			return nil, fmt.Errorf("hello on connection %d: %w", i, err)
		}
	}
	return w, nil
}

// closeWire closes the clients and the listener and waits for the server's
// connection handlers to drain; the dispatcher stays up.
func (w *wirePlant) closeWire() {
	for _, cl := range w.clients {
		_ = cl.Close()
	}
	_ = w.ln.Close()
	w.served.Wait()
}

// netPlant is a full SoftCell deployment (controller, programmed switches,
// middleboxes, one agent per station). The workload enables the burst fast
// path once its static population is in place.
type netPlant struct {
	net      *dataplane.Network
	stations int
	// goldClause is the policy's middlebox-free clause id.
	goldClause int
}

func newNetPlant(reg *obs.Registry) (*netPlant, error) {
	g, err := genTopology(smallK, smallC)
	if err != nil {
		return nil, err
	}
	pol := benchPolicy()
	n, err := softcell.New(softcell.Options{
		Topology: g.Topology,
		Gateway:  g.GatewayID,
		Policy:   pol,
		MBTypes:  benchMBTypes(),
		MBFuncs: map[topo.MBType]string{
			0: policy.MBFirewall, 1: policy.MBTranscoder, 2: policy.MBEchoCancel,
		},
		Plan: widePlan(),
		Obs:  reg,
	})
	if err != nil {
		return nil, err
	}
	n.Instrument(reg)
	return &netPlant{net: n, stations: len(g.Stations), goldClause: pol.Len() - 1}, nil
}

// enableFastPath starts the one-worker burst engine; from here on every
// Sync also recompiles the stale FIB snapshots.
func (p *netPlant) enableFastPath() { p.net.EnableFastPath(1) }

func (p *netPlant) close() { p.net.DisableFastPath() }

// accessOf is a station's access switch.
func (p *netPlant) accessOf(bs packet.BSID) topo.NodeID {
	st, _ := p.net.T.Station(bs)
	return st.Access
}

func (p *netPlant) ruleTable() (max, median int) {
	return hardwareRules([]*core.Controller{p.net.Ctrl})
}
