package lint

// Rules parameterise the analyzers: which packages each invariant covers
// and the explicit escape lists. Production rules live in DefaultRules;
// tests drive the analyzers over fixture packages with small rule tables.
type Rules struct {
	// LockPkgs are the packages whose "// guarded by <mu>" field
	// annotations lockcheck enforces. Entries ending in "/" are prefixes.
	LockPkgs []string

	// DetermPkgs are the virtual-clock packages where wall-clock time and
	// the global math/rand source are forbidden.
	DetermPkgs []string

	// LayerScope is the import-path prefix under which every package must
	// have a Layer entry; Layer maps a package to the module-local imports
	// it is allowed.
	LayerScope string
	Layer      map[string][]string

	// Construct restricts who may call specific constructors.
	Construct []ConstructRule

	// WireRootPkgs are scanned for message roots: every exported struct
	// whose name carries one of WireRootSuffixes. WireRoots adds explicit
	// "pkgpath.Type" roots outside those packages. WireIfaceAllow lists
	// interface types with a registered concrete set (encodable by
	// convention); WireTypeAllow lists named types accepted as encodable
	// even though their fields are unexported (custom marshalers).
	WireRootPkgs     []string
	WireRootSuffixes []string
	WireRoots        []string
	WireIfaceAllow   []string
	WireTypeAllow    []string

	// ObsPkg is the telemetry registry package whose registration calls
	// obscheck audits (empty disables the analyzer).
	ObsPkg string

	// ErrDrop allowlist: callee base names (any receiver), fully
	// qualified package functions ("fmt.Println"), and receiver types
	// ("bytes.Buffer") whose dropped errors are accepted as best-effort
	// by convention.
	ErrAllowNames     []string
	ErrAllowFuncs     []string
	ErrAllowRecvTypes []string

	// Escapes are compiler escape-analysis diagnostics (ParseEscapes over
	// `go build -gcflags=-m` output). When present, hotpath cross-checks
	// them against every function reachable from a no-alloc root.
	Escapes []EscapeDiag
}

// ConstructRule says only Allowed packages (entries ending in "/" are
// prefixes) may reference Func ("pkgpath.Name").
type ConstructRule struct {
	Func    string
	Allowed []string
}

// DefaultRules is the production rule set for this repository.
func DefaultRules() *Rules {
	return &Rules{
		LockPkgs: []string{
			"repro/internal/agent",
			"repro/internal/chaos",
			"repro/internal/core",
			"repro/internal/ctrlproto",
			"repro/internal/fastpath",
			"repro/internal/obs",
			"repro/internal/shard",
			"repro/internal/store",
			"repro/internal/switchsim",
		},
		DetermPkgs: []string{
			"repro/internal/chaos",
			"repro/internal/fastpath",
			"repro/internal/obs",
			"repro/internal/scenario",
			"repro/internal/sim",
			"repro/internal/simexp",
			"repro/internal/switchsim",
			"repro/internal/workload",
		},
		// The DESIGN.md dependency order: leaves first. A package may only
		// import the module-local packages listed here; adding an import
		// means widening the architecture on purpose, in this table.
		LayerScope: "repro/internal/",
		Layer: map[string][]string{
			"repro/internal/packet":  {},
			"repro/internal/metrics": {},
			"repro/internal/policy":  {},
			"repro/internal/store":   {},
			"repro/internal/sim":     {},
			"repro/internal/obs":     {},
			"repro/internal/lint":    {},
			"repro/internal/topo":    {"repro/internal/packet"},
			"repro/internal/switchsim": {
				"repro/internal/obs", "repro/internal/packet",
			},
			"repro/internal/fastpath": {
				"repro/internal/obs", "repro/internal/packet",
				"repro/internal/switchsim",
			},
			"repro/internal/mbox": {
				"repro/internal/packet", "repro/internal/topo",
			},
			"repro/internal/routing": {
				"repro/internal/packet", "repro/internal/topo",
			},
			"repro/internal/workload": {
				"repro/internal/metrics",
			},
			"repro/internal/core": {
				"repro/internal/metrics", "repro/internal/obs",
				"repro/internal/packet", "repro/internal/policy",
				"repro/internal/routing", "repro/internal/store",
				"repro/internal/topo",
			},
			"repro/internal/agent": {
				"repro/internal/core", "repro/internal/obs",
				"repro/internal/packet", "repro/internal/policy",
				"repro/internal/switchsim",
			},
			"repro/internal/ctrlproto": {
				"repro/internal/core", "repro/internal/obs",
				"repro/internal/packet", "repro/internal/policy",
				"repro/internal/topo",
			},
			"repro/internal/dataplane": {
				"repro/internal/agent", "repro/internal/core",
				"repro/internal/fastpath", "repro/internal/mbox",
				"repro/internal/obs", "repro/internal/packet",
				"repro/internal/policy", "repro/internal/switchsim",
				"repro/internal/topo",
			},
			"repro/internal/scenario": {
				"repro/internal/core", "repro/internal/dataplane",
				"repro/internal/mbox", "repro/internal/packet",
				"repro/internal/policy", "repro/internal/sim",
				"repro/internal/topo",
			},
			"repro/internal/shard": {
				"repro/internal/core", "repro/internal/ctrlproto",
				"repro/internal/obs", "repro/internal/packet",
				"repro/internal/policy", "repro/internal/sim",
				"repro/internal/store", "repro/internal/topo",
			},
			"repro/internal/simexp": {
				"repro/internal/core", "repro/internal/packet",
				"repro/internal/routing", "repro/internal/topo",
			},
			"repro/internal/plant": {
				"repro/internal/agent", "repro/internal/core",
				"repro/internal/ctrlproto", "repro/internal/dataplane",
				"repro/internal/mbox", "repro/internal/obs",
				"repro/internal/packet", "repro/internal/policy",
				"repro/internal/shard", "repro/internal/switchsim",
				"repro/internal/topo",
			},
			"repro/internal/chaos": {
				"repro/internal/agent", "repro/internal/core",
				"repro/internal/ctrlproto", "repro/internal/obs",
				"repro/internal/packet", "repro/internal/plant",
				"repro/internal/policy", "repro/internal/shard",
				"repro/internal/sim", "repro/internal/switchsim",
				"repro/internal/topo",
			},
			"repro/internal/cbench": {
				"repro/internal/agent", "repro/internal/core",
				"repro/internal/ctrlproto", "repro/internal/metrics",
				"repro/internal/obs", "repro/internal/packet",
				"repro/internal/plant", "repro/internal/policy",
				"repro/internal/shard", "repro/internal/switchsim",
				"repro/internal/topo", "repro/internal/workload",
			},
		},
		// The system under test has one definition: every controller,
		// dispatcher and agent fleet comes from internal/plant (shard builds
		// its own per-shard controllers, with the disjoint sub-space
		// partitioning that entails; dataplane builds one pull agent per
		// station; cbench's Table 2 fixture is the one agent on a fake-RTT
		// controller). repro/bench is a nested module whose files change only
		// in a benchmark PR; its plant.go and probe agents move onto
		// internal/plant in one, and its entries go with them.
		Construct: []ConstructRule{
			{
				Func:    "repro/internal/core.NewController",
				Allowed: []string{"repro/internal/plant", "repro/internal/shard"},
			},
			{
				Func:    "repro/internal/shard.New",
				Allowed: []string{"repro/bench", "repro/internal/plant"},
			},
			{
				Func: "repro/internal/agent.New",
				Allowed: []string{"repro/bench", "repro/internal/cbench",
					"repro/internal/dataplane", "repro/internal/plant"},
			},
		},
		ObsPkg:           "repro/internal/obs",
		WireRootPkgs:     []string{"repro/internal/ctrlproto"},
		WireRootSuffixes: []string{"Request", "Reply", "Report", "Notify"},
		WireRoots:        []string{"repro/internal/core.AgentLocationReport"},
		ErrAllowNames:    []string{"Close"},
		ErrAllowFuncs: []string{
			"fmt.Print", "fmt.Printf", "fmt.Println",
			"fmt.Fprint", "fmt.Fprintf", "fmt.Fprintln",
		},
		// ctrlproto's conn replies are best-effort by design: a send failure
		// marks the connection dead via c.fail and the read loop tears it
		// down — there is nothing further for the caller to do.
		ErrAllowRecvTypes: []string{
			"bytes.Buffer", "strings.Builder",
			"repro/internal/ctrlproto.conn",
		},
	}
}
