package policy

import (
	"math/rand"
	"testing"
	"testing/quick"
)

var subA = Attributes{Provider: "A", Plan: "silver", DeviceType: "phone"}

func TestPredicates(t *testing.T) {
	cases := []struct {
		name string
		pred Predicate
		attr Attributes
		app  AppType
		want bool
	}{
		{"true", True(), Attributes{}, AppWeb, true},
		{"attr hit", Attr(FieldProvider, "A"), subA, AppWeb, true},
		{"attr miss", Attr(FieldProvider, "B"), subA, AppWeb, false},
		{"plan", Attr(FieldPlan, "silver"), subA, AppWeb, true},
		{"device", Attr(FieldDeviceType, "phone"), subA, AppWeb, true},
		{"model", Attr(FieldModel, "x"), subA, AppWeb, false},
		{"os", Attr(FieldOSVersion, "9"), Attributes{OSVersion: "9"}, AppWeb, true},
		{"app hit", App(AppVideo), subA, AppVideo, true},
		{"app miss", App(AppVideo), subA, AppWeb, false},
		{"app any", App(AppAny), subA, AppSSH, true},
		{"and", And(Attr(FieldProvider, "A"), App(AppVideo)), subA, AppVideo, true},
		{"and short", And(Attr(FieldProvider, "B"), App(AppVideo)), subA, AppVideo, false},
		{"not", Not(Attr(FieldProvider, "B")), subA, AppWeb, true},
	}
	for _, tc := range cases {
		if got := tc.pred.Eval(tc.attr, tc.app); got != tc.want {
			t.Errorf("%s: Eval = %v, want %v", tc.name, got, tc.want)
		}
		if tc.pred.String() == "" {
			t.Errorf("%s: empty String", tc.name)
		}
	}
}

func TestPolicyMatchPriority(t *testing.T) {
	p := &Policy{}
	low := p.Add(Clause{Priority: 1, Pred: True(), Action: Via(MBFirewall)})
	high := p.Add(Clause{Priority: 9, Pred: App(AppVideo), Action: Via(MBTranscoder)})
	if id, ok := p.Match(subA, AppVideo); !ok || id != high {
		t.Fatalf("video should hit high-priority clause, got %d %v", id, ok)
	}
	if id, ok := p.Match(subA, AppWeb); !ok || id != low {
		t.Fatalf("web should fall through, got %d %v", id, ok)
	}
}

func TestPolicyStableTieBreak(t *testing.T) {
	p := &Policy{}
	first := p.Add(Clause{Priority: 5, Pred: True(), Action: Via("a")})
	p.Add(Clause{Priority: 5, Pred: True(), Action: Via("b")})
	if id, _ := p.Match(subA, AppWeb); id != first {
		t.Fatalf("equal priorities should prefer earlier clause, got %d", id)
	}
}

func TestPolicyNoMatch(t *testing.T) {
	p := &Policy{}
	p.Add(Clause{Priority: 1, Pred: Attr(FieldProvider, "Z"), Action: Via("x")})
	if _, ok := p.Match(subA, AppWeb); ok {
		t.Fatal("should not match")
	}
}

func TestPolicyAddAfterMatchInvalidatesCache(t *testing.T) {
	p := &Policy{}
	p.Add(Clause{Priority: 1, Pred: True(), Action: Via("a")})
	p.Match(subA, AppWeb) // build cache
	newID := p.Add(Clause{Priority: 10, Pred: True(), Action: Via("b")})
	if id, _ := p.Match(subA, AppWeb); id != newID {
		t.Fatalf("cache not invalidated: got %d, want %d", id, newID)
	}
}

func TestClauseLookup(t *testing.T) {
	p := &Policy{}
	id := p.Add(Clause{Priority: 1, Action: Via("x")}) // nil Pred defaults to True
	c, ok := p.Clause(id)
	if !ok || c.Pred == nil {
		t.Fatal("clause lookup / default pred")
	}
	if !c.Pred.Eval(subA, AppWeb) {
		t.Fatal("default predicate should be True")
	}
	if _, ok := p.Clause(99); ok {
		t.Fatal("out of range should fail")
	}
	if _, ok := p.Clause(-1); ok {
		t.Fatal("negative should fail")
	}
}

func TestExampleCarrierPolicyTable1(t *testing.T) {
	p := ExampleCarrierPolicy()
	if p.Len() != 6 {
		t.Fatalf("Len = %d, want 6 (5 Table-1 clauses + default)", p.Len())
	}
	cases := []struct {
		name  string
		attr  Attributes
		app   AppType
		chain []string
		allow bool
		qos   QoS
	}{
		{"roamer B firewalled", Attributes{Provider: "B"}, AppVideo, []string{MBFirewall}, true, QoSBestEffort},
		{"carrier C denied", Attributes{Provider: "C"}, AppWeb, nil, false, QoSBestEffort},
		{"silver video transcoded", Attributes{Provider: "A", Plan: "silver"}, AppVideo,
			[]string{MBFirewall, MBTranscoder}, true, QoSVideo},
		{"gold video plain", Attributes{Provider: "A", Plan: "gold"}, AppVideo, []string{MBFirewall}, true, QoSBestEffort},
		{"voip echo-cancel", Attributes{Provider: "A"}, AppVoIP, []string{MBFirewall, MBEchoCancel}, true, QoSVoice},
		{"m2m low latency", Attributes{Provider: "A", DeviceType: "m2m-fleet"}, AppTracking,
			[]string{MBFirewall}, true, QoSLowLatency},
		{"default web", Attributes{Provider: "A"}, AppWeb, []string{MBFirewall}, true, QoSBestEffort},
	}
	for _, tc := range cases {
		id, ok := p.Match(tc.attr, tc.app)
		if !ok {
			t.Errorf("%s: no match", tc.name)
			continue
		}
		c, _ := p.Clause(id)
		if c.Action.Allow != tc.allow {
			t.Errorf("%s: allow = %v", tc.name, c.Action.Allow)
		}
		if tc.allow {
			if len(c.Action.Chain) != len(tc.chain) {
				t.Errorf("%s: chain = %v, want %v", tc.name, c.Action.Chain, tc.chain)
				continue
			}
			for i := range tc.chain {
				if c.Action.Chain[i] != tc.chain[i] {
					t.Errorf("%s: chain = %v, want %v", tc.name, c.Action.Chain, tc.chain)
				}
			}
			if c.Action.QoS != tc.qos {
				t.Errorf("%s: qos = %d, want %d", tc.name, c.Action.QoS, tc.qos)
			}
		}
	}
}

func TestCompileMatchesPolicy(t *testing.T) {
	p := ExampleCarrierPolicy()
	attr := Attributes{Provider: "A", Plan: "silver", DeviceType: "m2m-fleet"}
	entries := p.Compile(attr)
	if len(entries) != len(AllApps) {
		t.Fatalf("compiled %d entries, want %d", len(entries), len(AllApps))
	}
	for _, e := range entries {
		id, ok := p.Match(attr, e.App)
		if !ok || id != e.Clause {
			t.Errorf("app %s: classifier says clause %d, policy says %d (%v)", e.App, e.Clause, id, ok)
		}
	}
}

func TestCompileOmitsUnmatched(t *testing.T) {
	p := &Policy{}
	p.Add(Clause{Priority: 1, Pred: App(AppVideo), Action: Via("x")})
	entries := p.Compile(subA)
	if len(entries) != 1 || entries[0].App != AppVideo {
		t.Fatalf("entries = %+v", entries)
	}
}

// Property: for random attributes and applications, the compiled classifier
// and the policy's Match agree — the invariant from DESIGN.md §6.
func TestCompileEquivalenceProperty(t *testing.T) {
	p := ExampleCarrierPolicy()
	providers := []string{"A", "B", "C"}
	plans := []string{"gold", "silver"}
	devices := []string{"phone", "m2m-fleet"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		attr := Attributes{
			Provider:   providers[rng.Intn(len(providers))],
			Plan:       plans[rng.Intn(len(plans))],
			DeviceType: devices[rng.Intn(len(devices))],
			Roaming:    rng.Intn(2) == 0,
		}
		compiled := make(map[AppType]int)
		for _, e := range p.Compile(attr) {
			compiled[e.App] = e.Clause
		}
		for _, app := range AllApps {
			id, ok := p.Match(attr, app)
			cid, cok := compiled[app]
			if ok != cok || (ok && id != cid) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAppFromPort(t *testing.T) {
	cases := map[uint16]AppType{
		80: AppWeb, 443: AppWeb, 8080: AppWeb,
		554: AppVideo, 1935: AppVideo,
		5060: AppVoIP, 5061: AppVoIP,
		5684: AppTracking,
		22:   AppSSH,
		9999: AppOther,
	}
	for port, want := range cases {
		if got := AppFromPort(port); got != want {
			t.Errorf("AppFromPort(%d) = %s, want %s", port, got, want)
		}
	}
}

func TestStrings(t *testing.T) {
	if AppVideo.String() != "video" || AppType(200).String() == "" {
		t.Error("app strings")
	}
	if FieldPlan.String() != "plan" || AttrField(99).String() == "" {
		t.Error("field strings")
	}
	if Deny().String() != "deny" {
		t.Error("deny string")
	}
	a := Via(MBFirewall, MBTranscoder).WithQoS(QoSVideo)
	if a.String() != "allow via firewall>transcoder qos=1" {
		t.Errorf("action string = %q", a.String())
	}
	c := Clause{Priority: 3, Pred: True(), Action: Deny()}
	if c.String() == "" {
		t.Error("clause string")
	}
}

// TestNamesRender: every application type renders by name and an unknown
// one by number, and a predicate on an unknown attribute field matches
// nothing, so a policy dump never prints blank and a bad field never admits.
func TestNamesRender(t *testing.T) {
	want := map[AppType]string{AppAny: "any", AppWeb: "web", AppVideo: "video", AppVoIP: "voip",
		AppTracking: "tracking", AppSSH: "ssh", AppOther: "other", AppType(99): "app(99)"}
	for app, name := range want {
		if got := app.String(); got != name {
			t.Errorf("AppType(%d) renders as %q, want %q", uint8(app), got, name)
		}
	}
	bad := Attr(AttrField(99), "A")
	if bad.Eval(subA, AppWeb) || bad.String() != `field(99)="A"` {
		t.Errorf("unknown field: Eval = %v, String = %s", bad.Eval(subA, AppWeb), bad)
	}
}
