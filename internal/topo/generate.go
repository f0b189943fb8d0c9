package topo

import (
	"fmt"
	"math/rand"

	"repro/internal/packet"
)

// GenParams parameterises the §6.3 synthetic cellular topology.
//
// The generated network has three layers:
//
//   - access: clusters of ClusterSize base stations interconnected in a ring
//     (one access switch per base station);
//   - aggregation: K pods of K switches in full mesh; in each pod K/2
//     switches each serve K/2 base-station clusters, and the other K/2
//     switches each uplink to K/2 core switches;
//   - core: K² switches in full mesh, all connected to one gateway switch.
//
// With ClusterSize=10 this yields 10·K³/4 base stations, matching the
// paper's k=8 → 1280 and k=20 → 20000.
type GenParams struct {
	K           int   // pod parameter; must be even and >= 2
	ClusterSize int   // base stations per ring cluster (paper: 10)
	MBTypes     int   // number of middlebox types (paper: k)
	Seed        int64 // RNG seed for middlebox placement
}

// Validate checks the parameters.
func (p GenParams) Validate() error {
	if p.K < 2 || p.K%2 != 0 {
		return fmt.Errorf("topo: K=%d must be even and >= 2", p.K)
	}
	if p.ClusterSize < 1 {
		return fmt.Errorf("topo: ClusterSize=%d must be positive", p.ClusterSize)
	}
	if p.MBTypes < 0 {
		return fmt.Errorf("topo: MBTypes=%d must be non-negative", p.MBTypes)
	}
	return nil
}

// Generated bundles the topology with the generator's layer bookkeeping.
type Generated struct {
	*Topology
	Params     GenParams
	GatewayID  NodeID
	PodSwitch  [][]NodeID // [pod][i] aggregation switches
	CoreSwitch []NodeID
}

// Generate builds the synthetic topology. Base stations are numbered densely
// from 0 in cluster order, so stations in the same cluster (and nearby
// clusters) occupy contiguous, aggregatable ID ranges — the property the
// paper's location-based aggregation relies on ("IDs of nearby base stations
// can be further aggregated into larger blocks").
func Generate(p GenParams) (*Generated, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	t := New()
	g := &Generated{Topology: t, Params: p}

	k := p.K
	// Core layer: k² switches, full mesh, plus the gateway.
	g.CoreSwitch = make([]NodeID, k*k)
	for i := range g.CoreSwitch {
		g.CoreSwitch[i] = t.AddNode(Core, fmt.Sprintf("core%d", i))
	}
	for i := 0; i < len(g.CoreSwitch); i++ {
		for j := i + 1; j < len(g.CoreSwitch); j++ {
			if err := t.Connect(g.CoreSwitch[i], g.CoreSwitch[j]); err != nil {
				return nil, err
			}
		}
	}
	g.GatewayID = t.AddNode(Gateway, "gw0")
	for _, cs := range g.CoreSwitch {
		if err := t.Connect(g.GatewayID, cs); err != nil {
			return nil, err
		}
	}

	// Aggregation layer: k pods of k switches in full mesh. In each pod the
	// first k/2 switches face the access layer and the last k/2 uplink to
	// the core.
	g.PodSwitch = make([][]NodeID, k)
	for pod := 0; pod < k; pod++ {
		g.PodSwitch[pod] = make([]NodeID, k)
		for i := 0; i < k; i++ {
			g.PodSwitch[pod][i] = t.AddNode(Agg, fmt.Sprintf("pod%d.agg%d", pod, i))
		}
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if err := t.Connect(g.PodSwitch[pod][i], g.PodSwitch[pod][j]); err != nil {
					return nil, err
				}
			}
		}
		// Core uplinks: pod switch k/2+u connects to k/2 core switches,
		// striped so pods spread over the whole core layer.
		for u := 0; u < k/2; u++ {
			up := g.PodSwitch[pod][k/2+u]
			for c := 0; c < k/2; c++ {
				coreIdx := (pod*k/2 + u + c*k) % len(g.CoreSwitch)
				if t.Nodes[up].PortTo(g.CoreSwitch[coreIdx]) < 0 {
					if err := t.Connect(up, g.CoreSwitch[coreIdx]); err != nil {
						return nil, err
					}
				}
			}
		}
	}

	// Access layer: each access-facing pod switch serves k/2 ring clusters
	// of ClusterSize base stations.
	nextBS := packet.BSID(0)
	for pod := 0; pod < k; pod++ {
		for s := 0; s < k/2; s++ {
			podSW := g.PodSwitch[pod][s]
			for c := 0; c < k/2; c++ {
				ring := make([]NodeID, p.ClusterSize)
				for b := 0; b < p.ClusterSize; b++ {
					ring[b] = t.AddNode(Access, fmt.Sprintf("as%d", nextBS))
					if err := t.AddBaseStation(nextBS, ring[b]); err != nil {
						return nil, err
					}
					nextBS++
				}
				for b := 0; b < p.ClusterSize; b++ {
					peer := ring[(b+1)%p.ClusterSize]
					if p.ClusterSize == 2 && b == 1 {
						break // a 2-ring is a single link
					}
					if p.ClusterSize > 1 {
						if err := t.Connect(ring[b], peer); err != nil {
							return nil, err
						}
					}
				}
				// The ring's head (and, for fault tolerance, its midpoint)
				// uplink to the pod switch.
				if err := t.Connect(ring[0], podSW); err != nil {
					return nil, err
				}
				if p.ClusterSize >= 4 {
					if err := t.Connect(ring[p.ClusterSize/2], podSW); err != nil {
						return nil, err
					}
				}
			}
		}
	}

	// Middleboxes: one instance of each type per pod (on a random pod
	// switch), two instances of each type in the core layer (§6.3).
	for typ := 0; typ < p.MBTypes; typ++ {
		for pod := 0; pod < k; pod++ {
			sw := g.PodSwitch[pod][rng.Intn(k)]
			if _, err := t.AttachMiddlebox(MBType(typ), sw); err != nil {
				return nil, err
			}
		}
		for i := 0; i < 2; i++ {
			sw := g.CoreSwitch[rng.Intn(len(g.CoreSwitch))]
			if _, err := t.AttachMiddlebox(MBType(typ), sw); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}
