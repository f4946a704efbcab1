// Package llc defines the last-level-cache organization interface and the
// baseline organizations the paper compares against:
//
//   - Private: one isolated L3 array per core.
//   - Shared: one monolithic L3 array for all cores.
//   - Cooperative: Chang & Sohi's spill-to-random-neighbor scheme, which
//     the paper calls "random replacement" (Section 4.7).
//
// All three embed one base that holds the arrays, the memory channel and
// the statistics, runs the miss/fill and writeback paths, and snapshots
// and restores the arrays and statistics (State); each type adds only
// its hit path (and, for Cooperative, its spill rules and neighbour
// stream). The
// constructors take explicit geometry: the Table 1 sizes of every scheme,
// the "4 x size private" bound among them, live in internal/sim's scheme
// table. The paper's own adaptive organization lives in internal/core and
// implements the same Organization interface.
package llc

import (
	"fmt"

	"nucasim/internal/cache"
	"nucasim/internal/dram"
	"nucasim/internal/memaddr"
)

// Latencies holds the L3 timing parameters from Table 1 (and their §4.5
// technology-scaled variants).
type Latencies struct {
	LocalHit  int // hit in the core's own partition (14; scaled: 16)
	RemoteHit int // hit in a neighbor partition (19; scaled: 24)
	SharedHit int // hit in a monolithic shared cache (19; scaled: 24)
}

// DefaultLatencies returns Table 1 values.
func DefaultLatencies() Latencies {
	return Latencies{LocalHit: 14, RemoteHit: 19, SharedHit: 19}
}

// ScaledLatencies returns the §4.5 future-technology values.
func ScaledLatencies() Latencies {
	return Latencies{LocalHit: 16, RemoteHit: 24, SharedHit: 24}
}

// AccessStats aggregates the externally visible L3 events for one core (or
// for the whole organization).
type AccessStats struct {
	Accesses     uint64
	LocalHits    uint64 // hits served at local-partition latency
	RemoteHits   uint64 // hits served from a neighbor partition
	Misses       uint64 // accesses that went to main memory
	Evictions    uint64 // blocks evicted from the L3 entirely
	Writebacks   uint64 // dirty evictions sent to memory
	SpillsOut    uint64 // cooperative only: blocks spilled to a neighbor
	Demotions    uint64 // adaptive only: private-LRU blocks demoted to shared
	TotalLatency uint64 // sum of access latencies (for mean latency)
}

// Hits returns local + remote hits.
func (s AccessStats) Hits() uint64 { return s.LocalHits + s.RemoteHits }

// MissRate returns misses/accesses.
func (s AccessStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// MeanLatency returns the average cycles per access.
func (s AccessStats) MeanLatency() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.TotalLatency) / float64(s.Accesses)
}

func (s *AccessStats) add(o AccessStats) {
	s.Accesses += o.Accesses
	s.LocalHits += o.LocalHits
	s.RemoteHits += o.RemoteHits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Writebacks += o.Writebacks
	s.SpillsOut += o.SpillsOut
	s.Demotions += o.Demotions
	s.TotalLatency += o.TotalLatency
}

// SetStats aggregates sharing-engine activity within one cache set.
// Organizations that partition sets (the adaptive scheme) keep one per
// global set; the slice is the data behind per-set occupancy/contention
// heatmaps (cmd/nucadbg) and the epoch CSV's activity columns.
type SetStats struct {
	Fills      uint64 // blocks installed on a miss
	Swaps      uint64 // shared-partition hits (Section 2.3 swap)
	Migrations uint64 // neighbor private-partition hits (parallel mode)
	Demotions  uint64 // private-LRU blocks pushed into the shared partition
	Evictions  uint64 // Algorithm 1 victims sent to memory
	Steals     uint64 // evictions whose victim belonged to another core
}

// Add accumulates o into s.
func (s *SetStats) Add(o SetStats) {
	s.Fills += o.Fills
	s.Swaps += o.Swaps
	s.Migrations += o.Migrations
	s.Demotions += o.Demotions
	s.Evictions += o.Evictions
	s.Steals += o.Steals
}

// Organization is a last-level cache scheme. Implementations are
// single-threaded, like the whole simulator.
type Organization interface {
	// Name identifies the scheme in tables ("private", "shared", ...).
	Name() string

	// Access performs a demand access (L2 miss) by core at cycle now.
	// It returns the cycle at which the critical data is available and
	// whether the access hit in the L3. Misses go to main memory inside
	// the call (including channel queueing).
	Access(core int, addr memaddr.Addr, write bool, now uint64) (ready uint64, hit bool)

	// WritebackFromL2 handles a dirty block evicted by a core's L2: if
	// the block is L3-resident it is marked dirty, otherwise it is
	// written to memory. No core-visible latency.
	WritebackFromL2(core int, addr memaddr.Addr, now uint64)

	// CoreStats returns the per-core statistics.
	CoreStats(core int) AccessStats

	// TotalStats returns aggregated statistics.
	TotalStats() AccessStats

	// Reset clears contents and statistics.
	Reset()
}

// base is what the baseline organizations share: their cache arrays
// (one per core, or one for a monolithic shared cache), all of one
// geometry and hit latency, the memory channel, per-core statistics and
// the latency recorder, with the miss/fill and writeback paths common to
// all of them.
type base struct {
	name    string
	caches  []*cache.Cache
	mem     *dram.Memory
	hitLat  uint64
	perCore []AccessStats
	lat     *LatencyRecorder
}

func newBase(name string, cores, arrays, bytesPerArray, ways, hitLat int, mem *dram.Memory) base {
	b := base{
		name:    name,
		caches:  make([]*cache.Cache, arrays),
		mem:     mem,
		hitLat:  uint64(hitLat),
		perCore: make([]AccessStats, cores),
	}
	for i := range b.caches {
		b.caches[i] = cache.New(fmt.Sprintf("%s-L3-%d", name, i), memaddr.NewGeometry(bytesPerArray, ways))
	}
	return b
}

// lookup counts a demand access by core and looks addr up in array c; a
// hit is counted as local at the arrays' hit latency.
func (b *base) lookup(core int, c *cache.Cache, addr memaddr.Addr, write bool) bool {
	st := &b.perCore[core]
	st.Accesses++
	if hit, _ := c.Access(addr, write); !hit {
		return false
	}
	st.LocalHits++
	st.TotalLatency += b.hitLat
	return true
}

// fetch serves core's miss from memory and fills the block into array c
// as core's own. It returns the cycle the data is ready and the block the
// fill displaced, which the caller disposes of.
func (b *base) fetch(core int, c *cache.Cache, addr memaddr.Addr, write bool, now uint64) (ready uint64, victim cache.Block, victimAddr memaddr.Addr) {
	st := &b.perCore[core]
	st.Misses++
	ready, _ = b.mem.ReadBlock(now)
	b.lat.ObserveMiss(core, ready-now)
	st.TotalLatency += ready - now
	victim, victimAddr = c.Install(addr, write, core)
	return ready, victim, victimAddr
}

// evict drops a block displaced by core's activity out of the L3,
// writing it back if dirty. The writeback is write-buffered: it occupies
// the channel from now rather than reserving time after the demand fetch.
func (b *base) evict(core int, victim cache.Block, now uint64) {
	if !victim.Valid {
		return
	}
	st := &b.perCore[core]
	st.Evictions++
	if victim.Dirty {
		st.Writebacks++
		b.mem.Writeback(now)
	}
}

// WritebackFromL2 implements Organization for organizations whose block
// may sit in any array: the block is marked dirty where it lives (without
// disturbing LRU order, a writeback is not a demand reference), or written
// to memory when no array holds it.
func (b *base) WritebackFromL2(core int, addr memaddr.Addr, now uint64) {
	for _, c := range b.caches {
		if c.MarkDirty(addr) {
			return
		}
	}
	b.writeback(core, now)
}

// writeback sends core's dirty L2 victim to memory.
func (b *base) writeback(core int, now uint64) {
	b.mem.Writeback(now)
	b.perCore[core].Writebacks++
}

// Name implements Organization.
func (b *base) Name() string { return b.name }

// CoreStats implements Organization.
func (b *base) CoreStats(core int) AccessStats { return b.perCore[core] }

// TotalStats implements Organization.
func (b *base) TotalStats() AccessStats {
	var total AccessStats
	for _, s := range b.perCore {
		total.add(s)
	}
	return total
}

// Reset implements Organization.
func (b *base) Reset() {
	for _, c := range b.caches {
		c.Reset()
	}
	clear(b.perCore)
}

// SetLatencyRecorder implements LatencyObserver.
func (b *base) SetLatencyRecorder(r *LatencyRecorder) { b.lat = r }

// Memory returns the underlying memory model.
func (b *base) Memory() *dram.Memory { return b.mem }

// Cache exposes array i for inspection in tests and examples: core i's
// own array, or for Shared (i = 0) the one shared array.
func (b *base) Cache(i int) *cache.Cache { return b.caches[i] }
