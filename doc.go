// Package softcell is a from-scratch reproduction of
//
//	SoftCell: Scalable and Flexible Cellular Core Network Architecture
//	Xin Jin, Li Erran Li, Laurent Vanbever, Jennifer Rexford
//	ACM CoNEXT 2013 — https://doi.org/10.1145/2535372.2535377
//
// as a production-quality Go library. It implements the paper's two core
// ideas — multi-dimensional aggregation of forwarding rules (policy tag ×
// base-station prefix × UE ID, Algorithm 1) and the asymmetric "smart access
// edge, dumb gateway edge" design — together with every substrate the paper
// evaluates on: an OpenFlow-style switch model, stateful middleboxes, a
// hierarchical cellular topology generator, local agents, a binary control
// channel, a replicated control store, mobility handling with policy
// consistency, a synthetic LTE workload, and the benchmark harnesses that
// regenerate each of the paper's tables and figures.
//
// The package itself is the facade: build a Network over any topology, load
// a service policy, attach UEs and send traffic; everything underneath lives
// in internal/ packages keyed by subsystem. Options is internal/plant's
// Spec, the one description of a system under test that every harness and
// binary builds from too. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-vs-measured results.
//
// Quick start:
//
//	net, _ := softcell.New(softcell.Options{
//	        Topology: t, Gateway: gw,
//	        Policy:   policy.ExampleCarrierPolicy()}) // or softcell.Example()
//	net.Ctrl.RegisterSubscriber("alice", policy.Attributes{Provider: "A"})
//	ue, _ := net.Attach("alice", 0)
//	res, _ := net.SendUpstream(0, pkt)
//
// See examples/quickstart for the runnable version.
package softcell
