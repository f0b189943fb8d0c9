// Package policy implements SoftCell's high-level service policies (§2.2):
// prioritised clauses whose predicates range over subscriber attributes and
// application types, and whose actions name a middlebox chain plus QoS and
// access control. It also compiles a policy against one subscriber's (fixed)
// attributes into the per-UE packet classifiers the local agent caches
// (§4.2).
package policy

import (
	"fmt"
	"sort"
	"strings"
)

// AppType classifies a flow's application. It is carried in the simulator's
// packet App field; real deployments derive it from port numbers or DPI at
// the access edge.
type AppType uint8

// Application types used throughout the examples and experiments.
const (
	AppAny      AppType = 0 // wildcard in predicates only
	AppWeb      AppType = 1
	AppVideo    AppType = 2
	AppVoIP     AppType = 3
	AppTracking AppType = 4 // M2M fleet tracking
	AppSSH      AppType = 5
	AppOther    AppType = 6
)

// AllApps enumerates the concrete (non-wildcard) application types.
var AllApps = []AppType{AppWeb, AppVideo, AppVoIP, AppTracking, AppSSH, AppOther}

func (a AppType) String() string {
	switch a {
	case AppAny:
		return "any"
	case AppWeb:
		return "web"
	case AppVideo:
		return "video"
	case AppVoIP:
		return "voip"
	case AppTracking:
		return "tracking"
	case AppSSH:
		return "ssh"
	case AppOther:
		return "other"
	default:
		return fmt.Sprintf("app(%d)", uint8(a))
	}
}

// AppFromPort infers the application type from a destination port, the
// fallback the access edge uses when the packet carries no explicit label.
func AppFromPort(dstPort uint16) AppType {
	switch dstPort {
	case 80, 8080, 443:
		return AppWeb
	case 554, 8554, 1935:
		return AppVideo
	case 5060, 5061:
		return AppVoIP
	case 5684:
		return AppTracking
	case 22:
		return AppSSH
	default:
		return AppOther
	}
}

// Attributes are a subscriber's (mostly static) properties, known to the
// controller from the subscriber database.
type Attributes struct {
	Provider   string // home carrier, e.g. "A"; roamers carry theirs
	Plan       string // billing plan: "gold", "silver", ...
	DeviceType string // "phone", "tablet", "m2m-fleet", "m2m-meter", ...
	Model      string // device model, e.g. "old-phone-3"
	OSVersion  string
	Roaming    bool
	OverCap    bool // usage cap exceeded
	Parental   bool // parental controls enabled
}

// Predicate is a boolean expression over (attributes, application).
type Predicate interface {
	Eval(attr Attributes, app AppType) bool
	String() string
}

type truePred struct{}

func (truePred) Eval(Attributes, AppType) bool { return true }
func (truePred) String() string                { return "true" }

// True matches everything.
func True() Predicate { return truePred{} }

type andPred []Predicate

func (a andPred) Eval(at Attributes, ap AppType) bool {
	for _, p := range a {
		if !p.Eval(at, ap) {
			return false
		}
	}
	return true
}
func (a andPred) String() string { return join(a, " && ") }

// And matches when all sub-predicates match.
func And(ps ...Predicate) Predicate { return andPred(ps) }

type notPred struct{ p Predicate }

func (n notPred) Eval(at Attributes, ap AppType) bool { return !n.p.Eval(at, ap) }
func (n notPred) String() string                      { return "!(" + n.p.String() + ")" }

// Not negates a predicate.
func Not(p Predicate) Predicate { return notPred{p} }

func join(ps []Predicate, sep string) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.String()
	}
	return strings.Join(parts, sep)
}

// AttrField names an attribute for Attr predicates.
type AttrField uint8

// Attribute fields.
const (
	FieldProvider AttrField = iota
	FieldPlan
	FieldDeviceType
	FieldModel
	FieldOSVersion
)

func (f AttrField) String() string {
	switch f {
	case FieldProvider:
		return "provider"
	case FieldPlan:
		return "plan"
	case FieldDeviceType:
		return "device"
	case FieldModel:
		return "model"
	case FieldOSVersion:
		return "os"
	default:
		return fmt.Sprintf("field(%d)", uint8(f))
	}
}

type attrPred struct {
	field AttrField
	value string
}

func (a attrPred) Eval(at Attributes, _ AppType) bool {
	switch a.field {
	case FieldProvider:
		return at.Provider == a.value
	case FieldPlan:
		return at.Plan == a.value
	case FieldDeviceType:
		return at.DeviceType == a.value
	case FieldModel:
		return at.Model == a.value
	case FieldOSVersion:
		return at.OSVersion == a.value
	default:
		return false
	}
}
func (a attrPred) String() string { return fmt.Sprintf("%s=%q", a.field, a.value) }

// Attr matches a string attribute exactly.
func Attr(field AttrField, value string) Predicate { return attrPred{field, value} }

type appPred struct{ app AppType }

func (a appPred) Eval(_ Attributes, ap AppType) bool {
	return a.app == AppAny || a.app == ap
}
func (a appPred) String() string { return "app=" + a.app.String() }

// App matches the flow's application type.
func App(a AppType) Predicate { return appPred{a} }

// QoS is a coarse quality-of-service class; higher is more urgent.
type QoS uint8

// QoS classes.
const (
	QoSBestEffort QoS = 0
	QoSVideo      QoS = 1
	QoSVoice      QoS = 2
	QoSLowLatency QoS = 3
)

// Action says how matching traffic is handled: whether it is admitted, the
// ordered middlebox chain it must traverse, and its QoS class. The chain
// names middlebox *functions*; the controller picks instances (§2.2: "The
// action does not indicate a specific instance").
type Action struct {
	Allow bool
	Chain []string // ordered middlebox function names
	QoS   QoS
}

// Deny is the drop action.
func Deny() Action { return Action{Allow: false} }

// Via builds an allow action through the named middlebox functions.
func Via(chain ...string) Action { return Action{Allow: true, Chain: chain} }

// WithQoS returns a copy of the action with the QoS class set.
func (a Action) WithQoS(q QoS) Action { a.QoS = q; return a }

func (a Action) String() string {
	if !a.Allow {
		return "deny"
	}
	s := "allow"
	if len(a.Chain) > 0 {
		s += " via " + strings.Join(a.Chain, ">")
	}
	if a.QoS != QoSBestEffort {
		s += fmt.Sprintf(" qos=%d", a.QoS)
	}
	return s
}

// Clause is one prioritised policy rule.
type Clause struct {
	Priority int // higher wins
	Pred     Predicate
	Action   Action
	Name     string // optional label for diagnostics
}

func (c Clause) String() string {
	return fmt.Sprintf("[%d] %s -> %s", c.Priority, c.Pred, c.Action)
}

// Policy is an ordered set of clauses. Build with Add; clause IDs are the
// insertion indices and remain stable.
type Policy struct {
	clauses []Clause
	// byPriority caches evaluation order: descending priority, then
	// insertion order (stable disambiguation for equal priorities).
	byPriority []int
	dirty      bool
}

// Add appends a clause and returns its stable ID.
func (p *Policy) Add(c Clause) int {
	if c.Pred == nil {
		c.Pred = True()
	}
	p.clauses = append(p.clauses, c)
	p.dirty = true
	return len(p.clauses) - 1
}

// Len reports the number of clauses.
func (p *Policy) Len() int { return len(p.clauses) }

// Clause returns the clause with the given ID.
func (p *Policy) Clause(id int) (Clause, bool) {
	if id < 0 || id >= len(p.clauses) {
		return Clause{}, false
	}
	return p.clauses[id], true
}

func (p *Policy) order() []int {
	if p.dirty || p.byPriority == nil {
		p.byPriority = make([]int, len(p.clauses))
		for i := range p.byPriority {
			p.byPriority[i] = i
		}
		sort.SliceStable(p.byPriority, func(a, b int) bool {
			return p.clauses[p.byPriority[a]].Priority > p.clauses[p.byPriority[b]].Priority
		})
		p.dirty = false
	}
	return p.byPriority
}

// Match returns the ID of the highest-priority clause matching the
// subscriber and application, or ok=false when nothing matches.
func (p *Policy) Match(attr Attributes, app AppType) (id int, ok bool) {
	for _, i := range p.order() {
		if p.clauses[i].Pred.Eval(attr, app) {
			return i, true
		}
	}
	return 0, false
}

// ClassifierEntry is one compiled per-UE packet classifier: for flows of
// application App, apply clause Clause. The local agent turns these into
// microflow rules once it knows the policy tag (§4.2).
type ClassifierEntry struct {
	App    AppType
	Clause int
	Action Action
}

// Compile specialises the policy for one subscriber. Because attributes are
// fixed per UE, the policy collapses to at most one entry per application
// type — exactly the classifier list the controller ships to a local agent.
// Applications with no matching clause are omitted (default-deny).
func (p *Policy) Compile(attr Attributes) []ClassifierEntry {
	var out []ClassifierEntry
	for _, app := range AllApps {
		if id, ok := p.Match(attr, app); ok {
			out = append(out, ClassifierEntry{App: app, Clause: id, Action: p.clauses[id].Action})
		}
	}
	return out
}

// Middlebox function names used by the example policy and tests.
const (
	MBFirewall   = "firewall"
	MBTranscoder = "transcoder"
	MBEchoCancel = "echo-cancel"
	MBIDS        = "ids"
	MBNAT        = "nat"
)

// ExampleCarrierPolicy reproduces Table 1 of the paper: carrier A's policy
// with a roaming agreement with carrier B.
func ExampleCarrierPolicy() *Policy {
	p := &Policy{}
	// 1. Carrier B's roamers fall back onto A's network, but through a
	// firewall to avoid abuse.
	p.Add(Clause{Priority: 60, Name: "roaming-B",
		Pred:   Attr(FieldProvider, "B"),
		Action: Via(MBFirewall)})
	// 2. Subscribers from all other carriers are disallowed.
	p.Add(Clause{Priority: 50, Name: "foreign-deny",
		Pred:   And(Not(Attr(FieldProvider, "A")), Not(Attr(FieldProvider, "B"))),
		Action: Deny()})
	// 3. Video for "silver" subscribers goes through a transcoder after the
	// firewall.
	p.Add(Clause{Priority: 40, Name: "silver-video",
		Pred:   And(Attr(FieldProvider, "A"), Attr(FieldPlan, "silver"), App(AppVideo)),
		Action: Via(MBFirewall, MBTranscoder).WithQoS(QoSVideo)})
	// 4. VoIP goes through echo cancellation after the firewall.
	p.Add(Clause{Priority: 30, Name: "voip",
		Pred:   And(Attr(FieldProvider, "A"), App(AppVoIP)),
		Action: Via(MBFirewall, MBEchoCancel).WithQoS(QoSVoice)})
	// 5. M2M fleet tracking is forwarded with high priority for low latency.
	p.Add(Clause{Priority: 20, Name: "m2m-tracking",
		Pred:   And(Attr(FieldProvider, "A"), Attr(FieldDeviceType, "m2m-fleet"), App(AppTracking)),
		Action: Via(MBFirewall).WithQoS(QoSLowLatency)})
	// Default: all of A's traffic through a firewall.
	p.Add(Clause{Priority: 10, Name: "default-A",
		Pred:   Attr(FieldProvider, "A"),
		Action: Via(MBFirewall)})
	return p
}
