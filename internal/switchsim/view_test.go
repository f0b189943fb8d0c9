package switchsim

// View exports the whole tables under one lock.
func (s *Switch) View() TableView { return s.ViewChanged(^uint64(0), ^uint64(0)) }

// Rule returns a snapshot of one TCAM rule by ID.
func (s *Switch) Rule(id RuleID) (Rule, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i := s.indexLocked(id)
	if i < 0 {
		return Rule{}, false
	}
	return s.ordered[i].snapshot(), true
}

// matchAll matches every packet on every port.
var matchAll = Match{InPort: AnyPort, SrcPortHi: 0xFFFF, DstPortHi: 0xFFFF}
