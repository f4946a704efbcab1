package llc

import (
	"nucasim/internal/dram"
	"nucasim/internal/memaddr"
)

// Shared is the monolithic shared L3 baseline: one LRU array for all
// cores. Every core allocates freely, so a cache-hungry core can pollute
// the others — the effect the paper's adaptive scheme controls.
type Shared struct{ base }

// NewSharedSized builds a shared organization with explicit geometry and
// hit latency: the Table 1 shared cache, or the Figure 9 8-MB study.
func NewSharedSized(cores int, mem *dram.Memory, bytes, ways, hitLat int) *Shared {
	return &Shared{newBase("shared", cores, 1, bytes, ways, hitLat, mem)}
}

// Access implements Organization.
func (s *Shared) Access(core int, addr memaddr.Addr, write bool, now uint64) (uint64, bool) {
	c := s.caches[0]
	if s.lookup(core, c, addr, write) {
		// A monolithic shared array has one hit latency; it lands in the
		// remote-hit histogram because 19 cycles is the far-bank figure.
		s.lat.ObserveRemote(core, s.hitLat)
		return now + s.hitLat, true
	}
	ready, victim, _ := s.fetch(core, c, addr, write, now)
	s.evict(core, victim, now)
	return ready, false
}

// OccupancyByOwner reports how many blocks each core currently holds —
// the direct measure of pollution in the shared baseline.
func (s *Shared) OccupancyByOwner() []int {
	return s.caches[0].OccupancyByOwner(len(s.perCore))
}

var _ Organization = (*Shared)(nil)
