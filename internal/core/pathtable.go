package core

import "repro/internal/packet"

// pathTable holds the installed policy paths, one slot per (station,
// clause): rows[bs][clause]. Station IDs and clause numbers are small and
// dense, so a handoff reaches a station's paths by indexing one row instead
// of hashing a key per clause, and a walk visits paths in ascending
// (station, clause) order. Rows grow on demand; a clause added to the
// policy later widens only the rows that install it.
type pathTable struct {
	rows [][]*InstalledPath
	n    int
}

// get returns the path installed under key, or nil.
func (p *pathTable) get(key pathKey) *InstalledPath {
	if int(key.bs) >= len(p.rows) || key.clause < 0 {
		return nil
	}
	if row := p.rows[key.bs]; key.clause < len(row) {
		return row[key.clause]
	}
	return nil
}

// put files rec under key, replacing what was there.
func (p *pathTable) put(key pathKey, rec *InstalledPath) {
	if int(key.bs) >= len(p.rows) {
		p.rows = append(p.rows, make([][]*InstalledPath, int(key.bs)+1-len(p.rows))...)
	}
	row := p.rows[key.bs]
	if key.clause >= len(row) {
		row = append(row, make([]*InstalledPath, key.clause+1-len(row))...)
		p.rows[key.bs] = row
	}
	if row[key.clause] == nil {
		p.n++
	}
	row[key.clause] = rec
}

// del removes the path filed under key, if any.
func (p *pathTable) del(key pathKey) {
	if p.get(key) != nil {
		p.rows[key.bs][key.clause] = nil
		p.n--
	}
}

// len reports the number of installed paths.
func (p *pathTable) len() int { return p.n }

// station returns bs's row, indexed by clause; nil slots are clauses with
// no path installed there. The row is the table's own: callers only read it.
func (p *pathTable) station(bs packet.BSID) []*InstalledPath {
	if int(bs) < len(p.rows) {
		return p.rows[bs]
	}
	return nil
}

// pathEntry is one installed path and the key it is filed under.
type pathEntry struct {
	key pathKey
	rec *InstalledPath
}

// all lists the installed paths in ascending (station, clause) order. The
// list is a copy: callers may change the table while ranging over it.
func (p *pathTable) all() []pathEntry {
	out := make([]pathEntry, 0, p.n)
	for bs, row := range p.rows {
		for clause, rec := range row {
			if rec != nil {
				out = append(out, pathEntry{pathKey{packet.BSID(bs), clause}, rec})
			}
		}
	}
	return out
}
