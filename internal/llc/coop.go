package llc

import (
	"nucasim/internal/cache"
	"nucasim/internal/dram"
	"nucasim/internal/memaddr"
	"nucasim/internal/rng"
)

// Cooperative implements the hybrid NUCA baseline of Section 4.7, the
// paper's rendering of Chang & Sohi's cooperative caching, which it calls
// "random replacement":
//
//   - Each core has a private cache; on a local miss all neighbors are
//     checked in parallel (19-cycle hit); the block migrates to the local
//     cache on a neighbor hit.
//   - When a core evicts a block that it fetched itself ("belongs" to the
//     evicting cache) due to its own access, the block is spilled into a
//     randomly chosen neighbor as MRU.
//   - A block evicted from a neighbor by a spill is never re-allocated
//     elsewhere ("to avoid ripple effects"), and a foreign block evicted
//     normally is not spilled again (it already had its second chance).
//
// Sharing is uncontrolled: there is no partitioning and no pollution
// protection, which is exactly what the adaptive scheme adds. Reset leaves
// the rng stream untouched.
type Cooperative struct {
	base
	remoteLat uint64
	r         *rng.Rand
}

// NewCooperativeSized builds a cooperative organization with explicit
// per-core geometry; lat gives the local and neighbor hit latencies and
// the rng drives neighbor choice.
func NewCooperativeSized(cores int, mem *dram.Memory, bytesPerCore, ways int, lat Latencies, r *rng.Rand) *Cooperative {
	if cores < 2 {
		panic("llc: cooperative caching needs at least 2 cores")
	}
	return &Cooperative{
		base:      newBase("coop", cores, cores, bytesPerCore, ways, lat.LocalHit, mem),
		remoteLat: uint64(lat.RemoteHit),
		r:         r,
	}
}

// Access implements Organization.
func (co *Cooperative) Access(core int, addr memaddr.Addr, write bool, now uint64) (uint64, bool) {
	local := co.caches[core]
	if co.lookup(core, local, addr, write) {
		co.lat.ObserveLocal(core, co.hitLat)
		return now + co.hitLat, true
	}
	// Check all neighbors (in parallel in hardware; any order here —
	// a block exists in at most one cache).
	for n := range co.caches {
		if n == core {
			continue
		}
		if blk, ok := co.caches[n].Invalidate(addr); ok {
			// Migrate to the local cache as MRU.
			st := &co.perCore[core]
			st.RemoteHits++
			st.TotalLatency += co.remoteLat
			co.lat.ObserveRemote(core, co.remoteLat)
			victim, victimAddr := local.Install(addr, blk.Dirty || write, blk.Owner)
			co.handleLocalVictim(core, victim, victimAddr, now)
			return now + co.remoteLat, true
		}
	}
	// Full miss: fetch from memory into the local cache.
	ready, victim, victimAddr := co.fetch(core, local, addr, write, now)
	co.handleLocalVictim(core, victim, victimAddr, now)
	return ready, false
}

// handleLocalVictim applies the spill rules to a block just evicted from
// core's local cache by core's own activity.
func (co *Cooperative) handleLocalVictim(core int, victim cache.Block, victimAddr memaddr.Addr, now uint64) {
	if !victim.Valid {
		return
	}
	if victim.Owner != core {
		// A foreign (previously spilled) block: it already had its
		// second chance; drop it (write back if dirty).
		co.evict(core, victim, now)
		return
	}
	// Own block evicted by own access: spill to a random neighbor as MRU.
	n := co.randomNeighbor(core)
	co.perCore[core].SpillsOut++
	nVictim, _ := co.caches[n].Install(victimAddr, victim.Dirty, victim.Owner)
	// The displaced neighbor block is not re-allocated (no ripple).
	co.evict(core, nVictim, now)
}

func (co *Cooperative) randomNeighbor(core int) int {
	n := co.r.Intn(len(co.caches) - 1)
	if n >= core {
		n++
	}
	return n
}

var _ Organization = (*Cooperative)(nil)
