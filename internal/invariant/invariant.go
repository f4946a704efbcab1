// Package invariant is an external structural checker for the adaptive
// NUCA organization. It re-derives every invariant the paper's design
// promises from the public inspection API (core.Adaptive's DumpSetInto /
// InspectSet / MaxBlocks / ShadowEntry accessors) and cross-checks the
// result against the engine's own internal self-check — so a bookkeeping
// bug has to fool two independently written checkers to go unnoticed.
//
// The catalog (see DESIGN.md):
//
//	I1 limit bounds      each maxBlocksInSet ∈ [1, assoc·cores−(cores−1)]
//	I2 limit sum         limits sum to the initial budget (transfers conserve)
//	I3 set capacity      every global set holds ≤ cores×ways blocks
//	I4 private shape     private stack c has ≤ ways blocks, owner=home=c
//	I5 tag uniqueness    a tag is resident at most once per global set
//	I6 occupancy match   InspectSet's derived counts match DumpSetInto's blocks
//	I7 home capacity     each local cache holds ≤ ways blocks of its set
//	I8 shadow aliasing   a valid shadow register never names a block its
//	                     core currently has resident
//	I9 index freshness   the incrementally maintained occupancy index
//	                     (per-set owner/home counters, whole-cache block
//	                     totals) equals a full recount of the block lists
package invariant

import (
	"fmt"

	"nucasim/internal/core"
)

// Check validates all structural invariants of a live Adaptive instance.
// It returns nil if the state is well-formed, or an error naming the
// first violated invariant. Cost is a full scan over every global set —
// meant for epoch boundaries and on-demand checks, not the access path.
func Check(a *core.Adaptive) error {
	cores, ways, total := a.NumCores(), a.LocalWays(), a.TotalWays()

	// I1 + I2: the controller's limits.
	limits := a.MaxBlocks()
	upper := total - (cores - 1)
	sum := 0
	for c, m := range limits {
		if m < 1 || m > upper {
			return fmt.Errorf("invariant I1: core %d limit %d outside [1,%d]", c, m, upper)
		}
		sum += m
	}
	if want := a.InitialLimit() * cores; sum != want {
		return fmt.Errorf("invariant I2: limits %v sum to %d, want %d", limits, sum, want)
	}

	// Scratch records reused across the per-set sweep: the checker runs
	// every epoch under -check-invariants, so it must not allocate per set.
	var d core.SetDump
	var occ, rec core.OccupancyOfSet
	// seen lists each resident tag of the set with the core whose
	// partition (private) or ownership (shared) holds it; a set holds at
	// most total tags, so a linear scan beats a map.
	type resident struct {
		tag uint64
		by  int
	}
	seen := make([]resident, 0, total)
	owned := make([]int, cores)
	find := func(tag uint64) (int, bool) {
		for _, r := range seen {
			if r.tag == tag {
				return r.by, true
			}
		}
		return 0, false
	}
	sumPriv, sumShared := 0, 0
	for set := 0; set < a.NumSets(); set++ {
		a.DumpSetInto(set, &d)
		a.InspectSetInto(set, &occ)

		if len(d.SharedTags) != len(d.SharedOwners) {
			return fmt.Errorf("invariant I6: set %d dump has %d shared tags but %d owners",
				set, len(d.SharedTags), len(d.SharedOwners))
		}
		seen = seen[:0]
		clear(owned)
		residents := 0
		for c, p := range d.Priv {
			// I4: private partition shape.
			if len(p) > ways {
				return fmt.Errorf("invariant I4: set %d core %d private stack holds %d > %d ways",
					set, c, len(p), ways)
			}
			if occ.Private[c] != len(p) {
				return fmt.Errorf("invariant I6: set %d core %d private occupancy %d, dump shows %d",
					set, c, occ.Private[c], len(p))
			}
			for _, tag := range p {
				if prev, dup := find(tag); dup {
					return fmt.Errorf("invariant I5: set %d tag %#x resident in partitions of core %d and core %d",
						set, tag, prev, c)
				}
				seen = append(seen, resident{tag, c})
			}
			owned[c] += len(p)
			residents += len(p)
		}
		for i, tag := range d.SharedTags {
			owner := d.SharedOwners[i]
			if owner < 0 || owner >= cores {
				return fmt.Errorf("invariant I6: set %d shared block %#x has owner %d outside [0,%d)",
					set, tag, owner, cores)
			}
			if prev, dup := find(tag); dup {
				return fmt.Errorf("invariant I5: set %d tag %#x duplicated (core %d partition and shared)",
					set, tag, prev)
			}
			seen = append(seen, resident{tag, owner})
			owned[owner]++
			residents++
		}

		// I3: set capacity.
		if residents > total {
			return fmt.Errorf("invariant I3: set %d holds %d blocks > %d slots", set, residents, total)
		}
		if occ.SharedBlocks != len(d.SharedTags) {
			return fmt.Errorf("invariant I6: set %d shared occupancy %d, dump shows %d",
				set, occ.SharedBlocks, len(d.SharedTags))
		}
		// I6: derived per-owner occupancy matches real ownership.
		for c := range owned {
			if occ.ByOwner[c] != owned[c] {
				return fmt.Errorf("invariant I6: set %d core %d owner count %d, blocks show %d",
					set, c, occ.ByOwner[c], owned[c])
			}
		}
		// I7: physical home capacity.
		for h, n := range occ.ByHome {
			if n > ways {
				return fmt.Errorf("invariant I7: set %d local cache %d homes %d > %d blocks",
					set, h, n, ways)
			}
		}
		// I8: shadow registers never alias a resident block of their core.
		for c := 0; c < cores; c++ {
			tag, ok := a.ShadowEntry(set, c)
			if !ok {
				continue
			}
			if by, ok := find(tag); ok && by == c {
				return fmt.Errorf("invariant I8: set %d shadow register of core %d names resident tag %#x",
					set, c, tag)
			}
		}
		// I9: the incremental occupancy index equals a full recount of the
		// intrusive lists. InspectSet reads the counters; RecountSetInto walks
		// the blocks and ignores them.
		a.RecountSetInto(set, &rec)
		for c := 0; c < cores; c++ {
			if occ.Private[c] != rec.Private[c] {
				return fmt.Errorf("invariant I9: set %d core %d private length %d, recount %d",
					set, c, occ.Private[c], rec.Private[c])
			}
			if occ.ByOwner[c] != rec.ByOwner[c] {
				return fmt.Errorf("invariant I9: set %d core %d owner counter %d, recount %d",
					set, c, occ.ByOwner[c], rec.ByOwner[c])
			}
			if occ.ByHome[c] != rec.ByHome[c] {
				return fmt.Errorf("invariant I9: set %d core %d home counter %d, recount %d",
					set, c, occ.ByHome[c], rec.ByHome[c])
			}
		}
		if occ.SharedBlocks != rec.SharedBlocks {
			return fmt.Errorf("invariant I9: set %d shared length %d, recount %d",
				set, occ.SharedBlocks, rec.SharedBlocks)
		}
		sumPriv += residents - len(d.SharedTags)
		sumShared += len(d.SharedTags)
	}

	// I9 (whole-cache half): the totals the epoch observer reads instead of
	// scanning must equal the sum over every set's dump.
	if priv, shared, _ := a.BlockTotals(); priv != sumPriv || shared != sumShared {
		return fmt.Errorf("invariant I9: whole-cache totals priv=%d shared=%d, per-set sum priv=%d shared=%d",
			priv, shared, sumPriv, sumShared)
	}

	// Cross-check against the engine's own internal self-check, which sees
	// fields (physical homes, dirty bits) the public dump omits.
	if msg := a.CheckInvariants(); msg != "" {
		return fmt.Errorf("invariant (internal): %s", msg)
	}
	return nil
}
