package switchsim

// Rule returns a snapshot of one TCAM rule by ID.
func (s *Switch) Rule(id RuleID) (Rule, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i := s.indexLocked(id)
	if i < 0 {
		return Rule{}, false
	}
	return s.tcam[i].rule.snapshot(), true
}

// matchAll matches every packet on every port.
var matchAll = Match{InPort: AnyPort, SrcPortHi: 0xFFFF, DstPortHi: 0xFFFF}
