package llc

import (
	"testing"

	"nucasim/internal/dram"
	"nucasim/internal/memaddr"
	"nucasim/internal/rng"
)

// blockIn returns an address in the given core's address space whose low
// bits select the given set/tag under a 4096-set L3 geometry.
func blockIn(core int, tag uint64, set int) memaddr.Addr {
	return memaddr.Addr(tag<<18 | uint64(set)<<6).WithSpace(core)
}

// The Table 1 organizations, at the geometry sim's scheme table gives
// them (internal/sim checks that table against Table 1).
func table1Private(cores int, mem *dram.Memory) *Private {
	return NewPrivateSized(cores, mem, 1<<20, 4, DefaultLatencies().LocalHit, "private")
}

func table1Shared(cores int, mem *dram.Memory) *Shared {
	return NewSharedSized(cores, mem, 4<<20, 16, DefaultLatencies().SharedHit)
}

func table1Coop(cores int, mem *dram.Memory, r *rng.Rand) *Cooperative {
	return NewCooperativeSized(cores, mem, 1<<20, 4, DefaultLatencies(), r)
}

func TestPrivateHitMissLatency(t *testing.T) {
	mem := dram.New(dram.PrivateConfig())
	p := table1Private(4, mem)
	a := blockIn(0, 1, 0)
	ready, hit := p.Access(0, a, false, 100)
	if hit {
		t.Fatal("cold access must miss")
	}
	if ready != 100+258 {
		t.Fatalf("miss ready at %d, want 358", ready)
	}
	ready, hit = p.Access(0, a, false, 400)
	if !hit || ready != 414 {
		t.Fatalf("hit ready at %d (hit=%v), want 414", ready, hit)
	}
	st := p.CoreStats(0)
	if st.Accesses != 2 || st.LocalHits != 1 || st.Misses != 1 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

func TestPrivateIsolation(t *testing.T) {
	mem := dram.New(dram.PrivateConfig())
	p := table1Private(4, mem)
	a := blockIn(0, 1, 0)
	p.Access(0, a, false, 0)
	// Core 1 accessing ANY address never hits core 0's cache; and core 0's
	// block is invisible to core 1 even at the same virtual address.
	if _, hit := p.Access(1, memaddr.Addr(a).WithSpace(1), false, 0); hit {
		t.Fatal("private caches must be isolated")
	}
	// Thrash core 1's cache; core 0's block must survive.
	for i := uint64(0); i < 100; i++ {
		p.Access(1, blockIn(1, i+10, 0), false, 0)
	}
	if _, hit := p.Access(0, a, false, 5000); !hit {
		t.Fatal("core 0's block was disturbed by core 1")
	}
}

func TestPrivateWritebackOnDirtyEviction(t *testing.T) {
	mem := dram.New(dram.PrivateConfig())
	p := NewPrivateSized(1, mem, 64*4*2, 4, 14, "tiny") // 2 sets, 4 ways
	// Fill set 0 with dirty blocks then overflow it.
	for i := uint64(0); i < 5; i++ {
		p.Access(0, memaddr.Addr(i<<7).WithSpace(0), true, 0)
	}
	if mem.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", mem.Stats.Writebacks)
	}
}

func TestPrivateWritebackFromL2(t *testing.T) {
	mem := dram.New(dram.PrivateConfig())
	p := table1Private(2, mem)
	a := blockIn(0, 1, 0)
	p.Access(0, a, false, 0) // miss + fill, clean
	p.WritebackFromL2(0, a, 500)
	if mem.Stats.Writebacks != 0 {
		t.Fatal("resident block should absorb the writeback")
	}
	p.WritebackFromL2(0, blockIn(0, 99, 0), 600) // absent block
	if mem.Stats.Writebacks != 1 {
		t.Fatal("absent block writeback must go to memory")
	}
}

func TestSharedCapacitySharing(t *testing.T) {
	mem := dram.New(dram.SharedConfig())
	s := table1Shared(4, mem)
	// One core can use far more than 1 MB worth of one set: 16 ways.
	for i := uint64(0); i < 16; i++ {
		s.Access(0, blockIn(0, i+1, 0), false, 0)
	}
	hits := 0
	for i := uint64(0); i < 16; i++ {
		if _, hit := s.Access(0, blockIn(0, i+1, 0), false, 10000); hit {
			hits++
		}
	}
	if hits != 16 {
		t.Fatalf("16-way shared set should retain 16 blocks, hit %d", hits)
	}
}

func TestSharedPollution(t *testing.T) {
	mem := dram.New(dram.SharedConfig())
	s := table1Shared(2, mem)
	a := blockIn(0, 1, 0)
	s.Access(0, a, false, 0)
	// Core 1 streams 16 distinct blocks through the same set: core 0's
	// block is polluted out. This is the uncontrolled sharing the paper
	// attacks.
	for i := uint64(0); i < 16; i++ {
		s.Access(1, blockIn(1, i+100, 0), false, 0)
	}
	if _, hit := s.Access(0, a, false, 99999); hit {
		t.Fatal("expected pollution to evict core 0's block")
	}
	occ := s.OccupancyByOwner()
	if occ[1] == 0 {
		t.Fatal("occupancy tracking broken")
	}
}

func TestSharedLatencies(t *testing.T) {
	mem := dram.New(dram.SharedConfig())
	s := table1Shared(4, mem)
	a := blockIn(2, 7, 3)
	ready, hit := s.Access(2, a, false, 0)
	if hit || ready != 260 {
		t.Fatalf("shared miss ready=%d hit=%v, want 260 false", ready, hit)
	}
	ready, hit = s.Access(2, a, false, 1000)
	if !hit || ready != 1019 {
		t.Fatalf("shared hit ready=%d, want 1019", ready)
	}
}

func TestCooperativeSpillAndNeighborHit(t *testing.T) {
	mem := dram.New(dram.PrivateConfig())
	co := NewCooperativeSized(2, mem, 64*4, 4, DefaultLatencies(), rng.New(1)) // 1 set, 4 ways each
	// Core 0 loads 5 own blocks into a 4-way cache: the LRU one (tag 1)
	// spills to core 1 (the only neighbor).
	for i := uint64(1); i <= 5; i++ {
		co.Access(0, blockIn(0, i, 0), false, 0)
	}
	if co.CoreStats(0).SpillsOut != 1 {
		t.Fatalf("spills = %d, want 1", co.CoreStats(0).SpillsOut)
	}
	if !co.Cache(1).Probe(blockIn(0, 1, 0)) {
		t.Fatal("spilled block should live in neighbor cache")
	}
	// Re-access: neighbor hit at 19 cycles, block migrates home.
	ready, hit := co.Access(0, blockIn(0, 1, 0), false, 1000)
	if !hit || ready != 1019 {
		t.Fatalf("neighbor hit ready=%d hit=%v, want 1019 true", ready, hit)
	}
	if co.Cache(1).Probe(blockIn(0, 1, 0)) {
		t.Fatal("migrated block should have left the neighbor")
	}
	if !co.Cache(0).Probe(blockIn(0, 1, 0)) {
		t.Fatal("migrated block should be local now")
	}
	if co.CoreStats(0).RemoteHits != 1 {
		t.Fatalf("remote hits = %d, want 1", co.CoreStats(0).RemoteHits)
	}
}

func TestCooperativeForeignVictimNotReSpilled(t *testing.T) {
	mem := dram.New(dram.PrivateConfig())
	co := NewCooperativeSized(2, mem, 64*4, 4, DefaultLatencies(), rng.New(2))
	// Spill one of core 0's blocks into core 1.
	for i := uint64(1); i <= 5; i++ {
		co.Access(0, blockIn(0, i, 0), false, 0)
	}
	spilled := blockIn(0, 1, 0)
	if !co.Cache(1).Probe(spilled) {
		t.Fatal("setup: expected spill into core 1")
	}
	// Core 1 now fills its own cache; the foreign block eventually becomes
	// its victim and must NOT bounce back into core 0.
	for i := uint64(1); i <= 8; i++ {
		co.Access(1, blockIn(1, i, 0), false, 0)
	}
	if co.Cache(0).Probe(spilled) || co.Cache(1).Probe(spilled) {
		t.Fatal("foreign victim must be dropped, not re-spilled")
	}
}

func TestCooperativeNoRippleOnSpill(t *testing.T) {
	mem := dram.New(dram.PrivateConfig())
	co := NewCooperativeSized(2, mem, 64*4, 4, DefaultLatencies(), rng.New(3))
	// Fill both caches with their own blocks.
	for i := uint64(1); i <= 4; i++ {
		co.Access(0, blockIn(0, i, 0), false, 0)
		co.Access(1, blockIn(1, i, 0), false, 0)
	}
	// Core 0 evicts tag 1 by loading tag 5: it spills into core 1 and
	// displaces core 1's LRU (tag 1), which must vanish entirely.
	co.Access(0, blockIn(0, 5, 0), false, 0)
	if !co.Cache(1).Probe(blockIn(0, 1, 0)) {
		t.Fatal("spill did not land")
	}
	if co.Cache(0).Probe(blockIn(1, 1, 0)) {
		t.Fatal("ripple: neighbor's victim was re-allocated")
	}
}

func TestCooperativeRandomNeighborExcludesSelf(t *testing.T) {
	mem := dram.New(dram.PrivateConfig())
	co := table1Coop(4, mem, rng.New(4))
	for i := 0; i < 1000; i++ {
		for c := 0; c < 4; c++ {
			if n := co.randomNeighbor(c); n == c || n < 0 || n > 3 {
				t.Fatalf("randomNeighbor(%d) = %d", c, n)
			}
		}
	}
}

func TestCooperativeNeedsTwoCores(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 1-core cooperative")
		}
	}()
	table1Coop(1, dram.New(dram.PrivateConfig()), rng.New(1))
}

func TestStatsHelpers(t *testing.T) {
	s := AccessStats{Accesses: 10, LocalHits: 4, RemoteHits: 2, Misses: 4, TotalLatency: 100}
	if s.Hits() != 6 {
		t.Fatal("Hits wrong")
	}
	if s.MissRate() != 0.4 {
		t.Fatal("MissRate wrong")
	}
	if s.MeanLatency() != 10 {
		t.Fatal("MeanLatency wrong")
	}
	var empty AccessStats
	if empty.MissRate() != 0 || empty.MeanLatency() != 0 {
		t.Fatal("empty stats must report zeros")
	}
}

func TestTotalStatsAggregates(t *testing.T) {
	mem := dram.New(dram.PrivateConfig())
	p := table1Private(2, mem)
	p.Access(0, blockIn(0, 1, 0), false, 0)
	p.Access(1, blockIn(1, 1, 0), false, 0)
	p.Access(0, blockIn(0, 1, 0), false, 999)
	total := p.TotalStats()
	if total.Accesses != 3 || total.Misses != 2 || total.LocalHits != 1 {
		t.Fatalf("total stats wrong: %+v", total)
	}
}

func TestResetAllOrgs(t *testing.T) {
	mem := dram.New(dram.SharedConfig())
	orgs := []Organization{
		table1Private(2, mem),
		table1Shared(2, mem),
		table1Coop(2, mem, rng.New(5)),
	}
	for _, org := range orgs {
		a := blockIn(0, 3, 1)
		org.Access(0, a, false, 0)
		org.Reset()
		if org.TotalStats().Accesses != 0 {
			t.Fatalf("%s: stats not reset", org.Name())
		}
		if _, hit := org.Access(0, a, false, 0); hit {
			t.Fatalf("%s: contents not reset", org.Name())
		}
	}
}
