package ctrlproto

import (
	"repro/internal/obs"
)

// Instrument registers the server's wire telemetry on reg: request frames
// served, path requests served, and group-commit flush sizes. Call before
// Serve/ServeConn. The wire layer deliberately emits no trace events —
// its flush batching and retransmission timing are scheduler-dependent,
// and trace dumps must stay deterministic in same-seed harness runs;
// counters and histograms are exempt from that guarantee. Spans are
// sampled and causally anchored (a frame's span context decides what gets
// recorded, not the scheduler), so the wire does carry wire.serve handler
// sections and wire.flush write sections for traced requests.
func (s *Server) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.obsFrames = reg.Counter("wire.frames.in")
	reg.Doc("wire.frames.in", "Control-channel frames read, all connections")
	s.obsRequests = reg.Counter("wire.requests.path")
	s.obsFlush = reg.Histogram("wire.flush.frames", 1, 2, 4, 8, 16, 32, 64)
	reg.Doc("wire.flush.frames", "Frames carried per group-commit flush write")
	s.obsServe = reg.SpanName("wire.serve")
	s.obsFlushSpan = reg.SpanName("wire.flush")
}

// Instrument registers the client's wire telemetry on reg: the number of
// same-reqID retransmissions its retry policy has sent (a lossy-wire
// health signal). Get-or-create registration makes re-instrumenting a
// reconnected client a no-op.
func (cl *Client) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	cl.c.retrans = reg.Counter("wire.retransmits")
	reg.Doc("wire.retransmits", "Same-reqID retransmissions sent by the retry policy")
	cl.c.rttSpan = reg.SpanName("wire.rtt")
}
