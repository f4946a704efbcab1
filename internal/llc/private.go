package llc

import (
	"nucasim/internal/dram"
	"nucasim/internal/memaddr"
)

// Private is the pure per-core private L3 organization: each core owns an
// isolated cache; misses go straight to memory. The paper uses it as the
// primary baseline because its behaviour is "predictable and well
// understood" (§4).
type Private struct{ base }

// NewPrivateSized builds a private organization with explicit per-core
// geometry and hit latency: the Table 1 private cache, the "4 x size
// private" capacity bound, or a cache-size sweep point (Figure 9 doubles
// capacity).
func NewPrivateSized(cores int, mem *dram.Memory, bytesPerCore, ways, hitLat int, name string) *Private {
	return &Private{newBase(name, cores, cores, bytesPerCore, ways, hitLat, mem)}
}

// Access implements Organization.
func (p *Private) Access(core int, addr memaddr.Addr, write bool, now uint64) (uint64, bool) {
	c := p.caches[core]
	if p.lookup(core, c, addr, write) {
		p.lat.ObserveLocal(core, p.hitLat)
		return now + p.hitLat, true
	}
	ready, victim, _ := p.fetch(core, c, addr, write, now)
	p.evict(core, victim, now)
	return ready, false
}

// WritebackFromL2 implements Organization. Only the core's own cache is
// searched: a copy of the same (shared-space) block in another core's
// private cache is that core's, not this writeback's.
func (p *Private) WritebackFromL2(core int, addr memaddr.Addr, now uint64) {
	if !p.caches[core].MarkDirty(addr) {
		p.writeback(core, now)
	}
}

var _ Organization = (*Private)(nil)
