package llc

import (
	"testing"
	"testing/quick"

	"nucasim/internal/dram"
	"nucasim/internal/memaddr"
	"nucasim/internal/rng"
)

// TestPropertyCoopNoDuplicateCopies: the cooperative scheme migrates on
// neighbor hits and spills at most once, so a block must never exist in
// two caches simultaneously.
func TestPropertyCoopNoDuplicateCopies(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		mem := dram.New(dram.PrivateConfig())
		co := NewCooperativeSized(4, mem, 64*4*2, 4, DefaultLatencies(), rng.New(seed))
		r := rng.New(seed + 1)
		steps := int(n%600) + 50
		for i := 0; i < steps; i++ {
			c := r.Intn(4)
			a := blockIn(c, uint64(r.Intn(10)+1), r.Intn(2))
			co.Access(c, a, r.Bool(0.3), uint64(i))
		}
		// Scan every cache for duplicate block addresses.
		seen := map[memaddr.Addr]int{}
		for c := 0; c < 4; c++ {
			g := co.Cache(c).Geom
			for set := 0; set < g.Sets; set++ {
				for _, b := range co.Cache(c).BlocksInSet(set) {
					addr := g.AddrFor(b.Tag, set)
					if prev, dup := seen[addr]; dup {
						t.Logf("block %v in caches %d and %d", addr, prev, c)
						return false
					}
					seen[addr] = c
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCoopStatsConsistent: hits + misses must equal accesses, and
// local + remote hits must equal hits, under arbitrary access streams.
func TestPropertyCoopStatsConsistent(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		mem := dram.New(dram.PrivateConfig())
		co := table1Coop(4, mem, rng.New(seed))
		r := rng.New(seed + 1)
		steps := int(n%500) + 50
		for i := 0; i < steps; i++ {
			c := r.Intn(4)
			co.Access(c, blockIn(c, uint64(r.Intn(30)), r.Intn(8)), r.Bool(0.2), uint64(i))
		}
		s := co.TotalStats()
		return s.LocalHits+s.RemoteHits+s.Misses == s.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestCoopDirtySpillWritesBackOnFinalEviction: a dirty block spilled to a
// neighbor must still write back when it finally leaves the L3.
func TestCoopDirtySpillWritesBackOnFinalEviction(t *testing.T) {
	mem := dram.New(dram.PrivateConfig())
	co := NewCooperativeSized(2, mem, 64*4, 4, DefaultLatencies(), rng.New(4))
	dirty := blockIn(0, 1, 0)
	co.Access(0, dirty, true, 0) // dirty fill
	// Push it out of core 0's cache: it spills dirty into core 1.
	for i := uint64(2); i <= 5; i++ {
		co.Access(0, blockIn(0, i, 0), false, 0)
	}
	if mem.Stats.Writebacks != 0 {
		t.Fatal("spill must not write back (the block stays on chip)")
	}
	if !co.Cache(1).Probe(dirty) {
		t.Fatal("dirty block should be in the neighbor")
	}
	// Now displace it from core 1 as a foreign victim: writeback fires.
	for i := uint64(1); i <= 8; i++ {
		co.Access(1, blockIn(1, i, 0), false, 0)
	}
	if mem.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want exactly 1", mem.Stats.Writebacks)
	}
}
