package euler

// Code no binary, example or benchmark reaches (repolint's reach
// analyzer), kept out of the product tree and alive only because a test
// in this package is about it: State.Clone. Delete it together with the
// test CHANGES.md (PR 24) lists for it.

// Clone returns a deep copy.
func (s *State) Clone() *State {
	c := NewState(s.G)
	copy(c.Rho, s.Rho)
	copy(c.U, s.U)
	copy(c.V, s.V)
	copy(c.P, s.P)
	return c
}
