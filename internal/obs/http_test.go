package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func debugServer(t *testing.T) (*Registry, *httptest.Server) {
	t.Helper()
	r := New()
	r.SetClock(func() int64 { return 1000 })
	r.Counter("debug.hits").Add(3)
	r.Histogram("debug.lat", 10, 100).Observe(42)
	r.EventType("debug.ev", "n").Emit(7)
	srv := httptest.NewServer(DebugHandler(r))
	t.Cleanup(srv.Close)
	return r, srv
}

func get(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

func TestDebugMetricsEndpoint(t *testing.T) {
	_, srv := debugServer(t)
	body, ctype := get(t, srv.URL+"/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("content type %q", ctype)
	}
	for _, line := range []string{"debug_hits 3", `debug_lat_bucket{le="100"} 1`, "debug_lat_count 1"} {
		if !strings.Contains(body, line) {
			t.Fatalf("/metrics missing %q:\n%s", line, body)
		}
	}
}

// TestDebugMetricsReportDroppedSpans forces a span drop — a recorder finds
// the ring slot its cursor claims mid-write — and reads the count on
// /metrics and /debug/snapshot.
func TestDebugMetricsReportDroppedSpans(t *testing.T) {
	r, srv := debugServer(t)
	if body, _ := get(t, srv.URL+"/metrics"); !strings.Contains(body, "\nobs_spans_dropped 0\n") {
		t.Fatalf("/metrics lacks obs_spans_dropped 0 before any drop:\n%s", body)
	}
	r.SetSpanSampling(1)
	name := r.SpanName("debug.dropped")
	for i := range r.st.spans.stripes {
		r.st.spans.stripes[i].ring[0].ver.Store(1) // a write in progress
	}
	name.Root().End()
	if r.st.spans.dropped.Load() != 1 {
		t.Fatalf("%d spans dropped, want the 1 whose slot was mid-write", r.st.spans.dropped.Load())
	}
	body, _ := get(t, srv.URL+"/metrics")
	for _, line := range []string{"# TYPE obs_spans_dropped counter\n", "\nobs_spans_dropped 1\n"} {
		if !strings.Contains(body, line) {
			t.Fatalf("/metrics missing %q:\n%s", line, body)
		}
	}
	var snap Snapshot
	body, _ = get(t, srv.URL+"/debug/snapshot")
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["obs.spans.dropped"] != 1 {
		t.Fatalf("/debug/snapshot counts %d dropped spans, want 1", snap.Counters["obs.spans.dropped"])
	}
}

func TestDebugSnapshotEndpoint(t *testing.T) {
	_, srv := debugServer(t)
	body, ctype := get(t, srv.URL+"/debug/snapshot")
	if ctype != "application/json" {
		t.Fatalf("content type %q", ctype)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("snapshot not JSON: %v\n%s", err, body)
	}
	if snap.Counters["debug.hits"] != 3 {
		t.Fatalf("snapshot counters = %v", snap.Counters)
	}
	if snap.Histograms["debug.lat"].Count != 1 {
		t.Fatalf("snapshot histograms = %v", snap.Histograms)
	}
}

func TestDebugEventsEndpoint(t *testing.T) {
	_, srv := debugServer(t)
	body, ctype := get(t, srv.URL+"/debug/events")
	if ctype != "application/json" {
		t.Fatalf("content type %q", ctype)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("events not JSON: %v\n%s", err, body)
	}
	if len(events) != 1 {
		t.Fatalf("got %d events, want 1", len(events))
	}
	if events[0]["type"] != "debug.ev" || events[0]["n"] != float64(7) || events[0]["t"] != float64(1000) {
		t.Fatalf("event = %v", events[0])
	}
}

func TestDebugEventsSinceEndpoint(t *testing.T) {
	r, srv := debugServer(t)
	ev := r.EventType("debug.ev", "n")
	ev.Emit(8)
	ev.Emit(9)
	// Cursor past the first two events: only seq 2 remains, and the
	// payload carries the cursor for the next poll.
	body, _ := get(t, srv.URL+"/debug/events?since=2")
	var page struct {
		Next   uint64           `json:"next"`
		Events []map[string]any `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatalf("incremental events not JSON: %v\n%s", err, body)
	}
	if page.Next != 3 {
		t.Fatalf("next cursor %d, want 3", page.Next)
	}
	if len(page.Events) != 1 || page.Events[0]["seq"] != float64(2) || page.Events[0]["n"] != float64(9) {
		t.Fatalf("incremental page = %+v", page.Events)
	}
	// Polling from the returned cursor drains nothing new.
	body, _ = get(t, srv.URL+"/debug/events?since=3")
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Events) != 0 || page.Next != 3 {
		t.Fatalf("tail poll = next %d, %d events", page.Next, len(page.Events))
	}
	if resp, err := http.Get(srv.URL + "/debug/events?since=nope"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad cursor must 400, got %v %v", resp.StatusCode, err)
	}
}

func TestDebugSpansEndpoint(t *testing.T) {
	r, srv := debugServer(t)
	r.SetSpanSampling(1)
	root := r.SpanName("debug.span.op")
	child := r.SpanName("debug.span.inner")
	sp := root.Root()
	child.Start(sp.Context()).End()
	sp.End()

	body, ctype := get(t, srv.URL+"/debug/spans")
	if ctype != "application/json" {
		t.Fatalf("content type %q", ctype)
	}
	var page struct {
		Attribution Attribution  `json:"attribution"`
		Spans       []SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatalf("spans not JSON: %v\n%s", err, body)
	}
	if len(page.Spans) != 2 || page.Attribution.Traces != 1 {
		t.Fatalf("span page = %+v", page)
	}
	if page.Spans[0].Name != "debug.span.op" {
		t.Fatalf("spans[0] = %+v", page.Spans[0])
	}

	text, ctype := get(t, srv.URL+"/debug/spans?format=waterfall")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("waterfall content type %q", ctype)
	}
	if !strings.Contains(text, "debug.span.inner") || !strings.Contains(text, "end-to-end") {
		t.Fatalf("waterfall missing layers:\n%s", text)
	}
}

func TestDebugPprofEndpoint(t *testing.T) {
	_, srv := debugServer(t)
	body, _ := get(t, srv.URL+"/debug/pprof/")
	if !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ index missing profiles:\n%s", body)
	}
	if body, _ := get(t, srv.URL+"/debug/pprof/cmdline"); body == "" {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}
