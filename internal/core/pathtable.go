package core

import (
	"sync/atomic"

	"repro/internal/packet"
	"repro/internal/topo"
)

// pathTable is the one record of the installed policy paths, one slot per
// (station, clause): rows[bs][clause]. Station IDs and clause numbers are
// small and dense, so a request or a handoff reaches a station's paths by
// indexing one row instead of hashing a key per clause, and a walk visits
// paths in ascending (station, clause) order.
//
// Each station's row sits behind its own atomic pointer and is
// copy-on-write: writers, all holding ruleMu, file a fresh row and swap the
// pointer, so RequestPath, classifier compilation and AgentView read one
// consistent row with no lock. The slice of pointers is sized once, from
// the topology's stations, and never changes; n, the path count, is the
// writers' alone.
type pathTable struct {
	rows []atomic.Pointer[pathRow]
	n    int
}

// pathRow is one station's installed paths, indexed by clause; a nil slot
// is a clause with no path there. A row is immutable after publish, and so
// is every record filed in it.
type pathRow []*InstalledPath

// newPathTable sizes a table for every station of t.
func newPathTable(t *topo.Topology) pathTable {
	return pathTable{rows: make([]atomic.Pointer[pathRow], stationSpan(t))}
}

// covers reports whether bs has a row in the table.
func (p *pathTable) covers(bs packet.BSID) bool { return int(bs) < len(p.rows) }

// station returns bs's current row; nil for a station with no paths or
// outside the table.
//
// hotpath: no alloc, no lock
func (p *pathTable) station(bs packet.BSID) pathRow {
	if p.covers(bs) {
		if row := p.rows[bs].Load(); row != nil {
			return *row
		}
	}
	return nil
}

// at returns the path filed under clause, or nil.
//
// hotpath: no alloc, no lock
func (r pathRow) at(clause int) *InstalledPath {
	if uint(clause) < uint(len(r)) {
		return r[clause]
	}
	return nil
}

// with returns a copy of r with rec filed under clause.
func (r pathRow) with(clause int, rec *InstalledPath) pathRow {
	next := make(pathRow, max(len(r), clause+1))
	copy(next, r)
	next[clause] = rec
	return next
}

// get returns the path installed under key, or nil.
//
// hotpath: no alloc, no lock
func (p *pathTable) get(key pathKey) *InstalledPath { return p.station(key.bs).at(key.clause) }

// put files rec under key, a slot that holds no path yet, and publishes
// the station's new row.
//
// caller holds ruleMu
func (p *pathTable) put(key pathKey, rec *InstalledPath) {
	row := p.station(key.bs).with(key.clause, rec)
	p.rows[key.bs].Store(&row)
	p.n++
}

// reset replaces the whole table with entries, publishing every station's
// new row, empty where no entry lands.
//
// caller holds ruleMu
func (p *pathTable) reset(entries []pathEntry) {
	rows := make([]pathRow, len(p.rows))
	for _, e := range entries {
		rows[e.key.bs] = rows[e.key.bs].with(e.key.clause, e.rec)
	}
	for bs := range rows {
		p.rows[bs].Store(&rows[bs])
	}
	p.n = len(entries)
}

// len reports the number of installed paths.
func (p *pathTable) len() int { return p.n }

// pathEntry is one installed path and the key it is filed under.
type pathEntry struct {
	key pathKey
	rec *InstalledPath
}

// all lists the installed paths in ascending (station, clause) order.
func (p *pathTable) all() []pathEntry {
	out := make([]pathEntry, 0, p.n)
	for bs := range p.rows {
		for clause, rec := range p.station(packet.BSID(bs)) {
			if rec != nil {
				out = append(out, pathEntry{pathKey{packet.BSID(bs), clause}, rec})
			}
		}
	}
	return out
}
