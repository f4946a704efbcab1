package core

import (
	"fmt"

	"nucasim/internal/cache"
	"nucasim/internal/llc"
	"nucasim/internal/telemetry"
)

// BlockState is one resident block with exported fields for serialization.
type BlockState struct {
	Tag   uint64
	Owner int8
	Home  int8
	Dirty bool
}

// State is the complete mutable state of an Adaptive instance — enough
// to resume a checkpointed run bit-identically. Configuration is not
// included: Restore expects an instance built with the same Config.
// Derived quantities (the incremental occupancy index, whole-cache block
// totals, the activity aggregate) are not serialized; Restore rebuilds
// them from the blocks and the per-set stats.
type State struct {
	// Blocks holds every global set's LRU stacks, MRU→LRU: set i's
	// private stacks of cores 0..Cores-1, then its shared stack.
	Blocks    cache.Stacks[BlockState]
	Shadow    cache.ShadowState
	MaxBlocks []int

	ShadowHits        []uint64
	LRUHits           []uint64
	MissesSinceRepart int

	PerCore    []llc.AccessStats
	SetStats   []llc.SetStats
	LastSetAgg llc.SetStats
	EpochStats []llc.AccessStats // nil when telemetry was detached

	// EpochLatBase carries the merged latency-histogram totals at the last
	// epoch boundary, so a resumed run's per-epoch latency percentiles
	// continue from the same baseline. Zero-valued when telemetry was
	// detached.
	EpochLatBase telemetry.HistogramState

	Repartitions     uint64
	Evaluations      uint64
	SinceLimitChange uint64
}

// listOut copies the list starting at slot head of the set at setBase
// into dst, MRU→LRU.
func (a *Adaptive) listOut(dst []BlockState, setBase int, head int16) {
	n := head
	for i := 0; i < len(dst) && n != nilSlot; i++ {
		nd := &a.nodes[setBase+int(n)]
		dst[i] = BlockState{Tag: nd.tag, Owner: nd.owner, Home: nd.home, Dirty: nd.dirty}
		n = nd.next
	}
}

// Snapshot captures the instance's full mutable state.
func (a *Adaptive) Snapshot() State {
	st := State{
		Shadow:            a.shadow.State(),
		MaxBlocks:         append([]int(nil), a.maxBlocks...),
		ShadowHits:        append([]uint64(nil), a.shadowHits...),
		LRUHits:           append([]uint64(nil), a.lruHits...),
		MissesSinceRepart: a.missesSinceRepart,
		PerCore:           append([]llc.AccessStats(nil), a.perCore...),
		SetStats:          append([]llc.SetStats(nil), a.setStats...),
		LastSetAgg:        a.lastSetAgg,
		Repartitions:      a.Repartitions,
		Evaluations:       a.Evaluations,
		SinceLimitChange:  a.sinceLimitChange,
	}
	if a.epochStats != nil {
		st.EpochStats = append([]llc.AccessStats(nil), a.epochStats...)
	}
	if a.tel != nil {
		st.EpochLatBase = a.epochLatBase.State()
	}
	cores := a.cfg.Cores
	st.Blocks = cache.MakeStacks[BlockState](len(a.setHdrs)*(cores+1), a.totalPriv+a.totalShared)
	for i := range a.setHdrs {
		setBase := i * a.slotsPerSet
		for _, m := range a.mru[i*cores : (i+1)*cores] {
			a.listOut(st.Blocks.Push(int(m.privLen)), setBase, m.head)
		}
		sh := &a.setHdrs[i]
		a.listOut(st.Blocks.Push(int(sh.sharedLen)), setBase, sh.sharedHead)
	}
	return st
}

// Restore loads a snapshot taken from an identically configured instance,
// reading st but never writing it. Every slice length and block owner and
// home is checked before the arena is rebuilt (buildArena), and
// CheckInvariants vets the result, so a corrupted snapshot is rejected.
func (a *Adaptive) Restore(st State) error {
	cores, sets := a.cfg.Cores, len(a.setHdrs)
	next, err := st.Blocks.Split(sets*(cores+1), a.totalWays)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	epochCores := cores
	if st.EpochStats == nil {
		epochCores = 0
	}
	for _, l := range []struct {
		name      string
		got, want int
	}{
		{"MaxBlocks", len(st.MaxBlocks), cores},
		{"PerCore", len(st.PerCore), cores},
		{"ShadowHits", len(st.ShadowHits), cores},
		{"LRUHits", len(st.LRUHits), cores},
		{"EpochStats", len(st.EpochStats), epochCores},
		{"SetStats", len(st.SetStats), sets},
	} {
		if l.got != l.want {
			return fmt.Errorf("core: state %s has %d entries, instance wants %d", l.name, l.got, l.want)
		}
	}
	for i := 0; i < sets; i++ {
		blocks := 0
		for k := 0; k <= cores; k++ {
			stack := next()
			blocks += len(stack)
			for _, b := range stack {
				if int(b.Owner) < 0 || int(b.Owner) >= cores || int(b.Home) < 0 || int(b.Home) >= cores {
					return fmt.Errorf("core: restored state violates invariants: set %d block %#x has owner %d home %d outside [0,%d)",
						i, b.Tag, b.Owner, b.Home, cores)
				}
			}
		}
		if blocks > a.totalWays {
			return fmt.Errorf("core: restored state violates invariants: set %d holds %d blocks > %d", i, blocks, a.totalWays)
		}
	}
	if err := a.shadow.Restore(st.Shadow); err != nil {
		return err
	}
	next, _ = st.Blocks.Split(sets*(cores+1), a.totalWays) // validated above
	a.buildArena(next)
	copy(a.maxBlocks, st.MaxBlocks)
	copy(a.shadowHits, st.ShadowHits)
	copy(a.lruHits, st.LRUHits)
	a.missesSinceRepart = st.MissesSinceRepart
	copy(a.perCore, st.PerCore)
	copy(a.setStats, st.SetStats)
	a.aggStats = llc.SetStats{}
	for i := range a.setStats {
		a.aggStats.Add(a.setStats[i])
	}
	a.lastSetAgg = st.LastSetAgg
	if st.EpochStats == nil {
		// A state captured without telemetry has no epoch baseline;
		// start from zero, as an instance built with telemetry does.
		clear(a.epochStats)
	} else {
		copy(a.epochStats, st.EpochStats)
	}
	// Counters were flushed when the checkpoint was captured (their values
	// travel in the registry state), so the flush baseline resumes at the
	// restored aggregates; the epoch-latency baseline travels explicitly.
	a.lastCtrFlush = a.aggStats
	if err := a.epochLatBase.RestoreState(st.EpochLatBase); err != nil {
		return err
	}
	a.Repartitions = st.Repartitions
	a.Evaluations = st.Evaluations
	a.sinceLimitChange = st.SinceLimitChange
	if msg := a.CheckInvariants(); msg != "" {
		return fmt.Errorf("core: restored state violates invariants: %s", msg)
	}
	return nil
}
