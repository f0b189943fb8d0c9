package switchsim

import (
	"repro/internal/obs"
)

// swObs is the switch's telemetry handle set: per-packet pipeline
// outcomes, cheap enough for the forwarding hot path (every handle is a
// single atomic add; all nil, hence no-op, until Instrument runs).
type swObs struct {
	packets   *obs.Counter // packets entering the pipeline
	microHit  *obs.Counter // exact-match microflow hits
	microMiss *obs.Counter // packets falling through to the TCAM
	tcamHit   *obs.Counter // TCAM rule executions (resubmits count again)
	miss      *obs.Counter // table misses (table-miss action applied)
	punt      *obs.Counter // final verdict: to controller/agent
	drop      *obs.Counter // final verdict: dropped
	// pageCopy counts the microflow index's block pages writes replaced
	// by copies, and the pages a relayout copied (see microTable.seal).
	pageCopy *obs.Counter
	// tcamCopy counts the TCAM entries the first write after a seal
	// copied (see edit).
	tcamCopy *obs.Counter
}

// Instrument registers the switch's telemetry on reg. Call it before
// traffic starts (it swaps the handle set unlocked). Registration is
// get-or-create: many switches instrumenting the same registry aggregate
// into one series; callers wanting per-switch series pass a Sub view.
func (s *Switch) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.obs = swObs{
		packets:   reg.Counter("switchsim.packets"),
		microHit:  reg.Counter("switchsim.micro.hit"),
		microMiss: reg.Counter("switchsim.micro.miss"),
		tcamHit:   reg.Counter("switchsim.tcam.hit"),
		miss:      reg.Counter("switchsim.tcam.miss"),
		punt:      reg.Counter("switchsim.punt"),
		drop:      reg.Counter("switchsim.drop"),
		pageCopy:  reg.Counter("switchsim.micro.pages.copied"),
		tcamCopy:  reg.Counter("switchsim.tcam.rules.copied"),
	}
}
