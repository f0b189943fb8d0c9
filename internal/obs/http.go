package obs

import (
	"net/http"
	"net/http/pprof"
	"strconv"
)

// DebugHandler serves a registry for live introspection:
//
//	/metrics        Prometheus text exposition of the current snapshot,
//	                plus obs.spans.dropped (see served)
//	/debug/snapshot the same snapshot as JSON
//	/debug/events   the retained trace ring as JSON, oldest first;
//	                ?since=<seq> tails incrementally and wraps the
//	                events with the next poll cursor
//	/debug/spans    the retained sampled spans plus their critical-path
//	                attribution as JSON; ?format=waterfall renders the
//	                attribution as a text table
//	/debug/pprof/   the standard runtime profiles
//
// softcelld mounts it behind -debug-addr (off by default — the endpoints
// expose internals and profiling, so binding them is an explicit
// operator decision).
func DebugHandler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WritePrometheus(w, r.served()); err != nil {
			// The snapshot rendered; the write failed because the client
			// went away — nothing to clean up.
			return
		}
	})
	mux.HandleFunc("/debug/snapshot", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if _, err := w.Write(r.served().JSON()); err != nil {
			return
		}
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, req *http.Request) {
		if raw := req.URL.Query().Get("since"); raw != "" {
			since, err := strconv.ParseUint(raw, 10, 64)
			if err != nil {
				http.Error(w, "bad since cursor", http.StatusBadRequest)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			if _, err := w.Write(r.TraceJSONSince(since)); err != nil {
				return
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := r.WriteTrace(w); err != nil {
			return
		}
	})
	mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, req *http.Request) {
		attr := Attribute(r.SpanRecords())
		if req.URL.Query().Get("format") == "waterfall" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if _, err := w.Write([]byte(attr.Waterfall())); err != nil {
				return
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if _, err := w.Write([]byte("{\"attribution\":")); err != nil {
			return
		}
		if _, err := w.Write(attr.JSON()); err != nil {
			return
		}
		if _, err := w.Write([]byte(",\"spans\":")); err != nil {
			return
		}
		if err := r.WriteSpans(w); err != nil {
			return
		}
		if _, err := w.Write([]byte("}\n")); err != nil {
			return
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// spansDropped names the count of sampled spans the rings lost to slot
// contention, as the debug endpoints report it.
const spansDropped = "obs.spans.dropped"

// served is the snapshot the debug endpoints serve: the registry's metrics
// and the count of sampled spans lost to slot contention, so a traced run
// cannot lose spans silently.
func (r *Registry) served() Snapshot {
	s := r.Snapshot()
	if r == nil {
		return s
	}
	s.Counters[spansDropped] = r.st.spans.dropped.Load()
	if s.Help == nil {
		s.Help = make(map[string]string, 1)
	}
	s.Help[spansDropped] = "Sampled spans lost to span-ring slot contention"
	return s
}
