package cache

import (
	"testing"
	"testing/quick"

	"nucasim/internal/memaddr"
	"nucasim/internal/rng"
)

func tiny() *Cache { return New("t", memaddr.NewGeometrySets(4, 2)) }

// addrFor builds an address that maps to the given set with the given tag
// under the tiny() geometry (4 sets => 2 set bits above 6 block bits).
func addrFor(tag uint64, set int) memaddr.Addr {
	return memaddr.Addr(tag<<8 | uint64(set)<<6)
}

func TestMissThenInstallThenHit(t *testing.T) {
	c := tiny()
	a := addrFor(1, 0)
	if hit, _ := c.Access(a, false); hit {
		t.Fatal("cold access must miss")
	}
	c.Install(a, false, 0)
	if hit, pos := c.Access(a, false); !hit || pos != 0 {
		t.Fatalf("expected MRU hit, got hit=%v pos=%d", hit, pos)
	}
	if c.Stats.Accesses != 2 || c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Fatalf("stats wrong: %+v", c.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	c := tiny() // 2 ways
	a, b, d := addrFor(1, 0), addrFor(2, 0), addrFor(3, 0)
	c.Install(a, false, 0)
	c.Install(b, false, 0)
	victim, vaddr := c.Install(d, false, 0)
	if !victim.Valid {
		t.Fatal("expected an eviction")
	}
	if vaddr.Block() != a.Block() {
		t.Fatalf("LRU victim should be a (%v), got %v", a, vaddr)
	}
	if c.Probe(a) {
		t.Fatal("evicted block still present")
	}
	if !c.Probe(b) || !c.Probe(d) {
		t.Fatal("remaining blocks missing")
	}
}

func TestAccessPromotesToMRU(t *testing.T) {
	c := tiny()
	a, b, d := addrFor(1, 0), addrFor(2, 0), addrFor(3, 0)
	c.Install(a, false, 0)
	c.Install(b, false, 0) // order: b(MRU), a(LRU)
	c.Access(a, false)     // order: a(MRU), b(LRU)
	victim, _ := c.Install(d, false, 0)
	gotAddr := c.Geom.AddrFor(victim.Tag, 0)
	if gotAddr.Block() != b.Block() {
		t.Fatalf("victim should be b after a was touched, got %v", gotAddr)
	}
}

func TestHitPositionReported(t *testing.T) {
	c := New("t", memaddr.NewGeometrySets(2, 4))
	addrs := []memaddr.Addr{addrFor(1, 0), addrFor(2, 0), addrFor(3, 0), addrFor(4, 0)}
	for _, a := range addrs {
		c.Install(a, false, 0)
	}
	// Stack is now 4,3,2,1 (MRU→LRU). Hitting tag 1 is position 3 = LRU.
	if hit, pos := c.Access(addrs[0], false); !hit || pos != 3 {
		t.Fatalf("want LRU hit at pos 3, got hit=%v pos=%d", hit, pos)
	}
	// Now stack 1,4,3,2; hitting 4 is position 1.
	if hit, pos := c.Access(addrs[3], false); !hit || pos != 1 {
		t.Fatalf("want pos 1, got hit=%v pos=%d", hit, pos)
	}
}

func TestDirtyWritebackCounting(t *testing.T) {
	c := tiny()
	a, b, d := addrFor(1, 0), addrFor(2, 0), addrFor(3, 0)
	c.Install(a, true, 0) // dirty fill
	c.Install(b, false, 0)
	victim, _ := c.Install(d, false, 0)
	if !victim.Dirty {
		t.Fatal("victim should be dirty")
	}
	if c.Stats.Writebacks != 1 || c.Stats.Evictions != 1 {
		t.Fatalf("stats wrong: %+v", c.Stats)
	}
}

func TestWriteHitSetsDirty(t *testing.T) {
	c := tiny()
	a, b, d := addrFor(1, 0), addrFor(2, 0), addrFor(3, 0)
	c.Install(a, false, 0)
	c.Access(a, true) // write hit dirties the block
	c.Install(b, false, 0)
	victim, _ := c.Install(d, false, 0)
	if !victim.Dirty {
		t.Fatal("write-hit block should be evicted dirty")
	}
}

func TestInstallExistingRefreshes(t *testing.T) {
	c := tiny()
	a, b := addrFor(1, 0), addrFor(2, 0)
	c.Install(a, false, 0)
	c.Install(b, false, 0) // b MRU, a LRU
	c.Install(a, true, 1)  // refresh a to MRU, dirty, owner 1
	if msg := c.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	blocks := c.BlocksInSet(0)
	if len(blocks) != 2 {
		t.Fatalf("duplicate install created %d blocks", len(blocks))
	}
	if blocks[0].Tag != c.Geom.Tag(a) || !blocks[0].Dirty || blocks[0].Owner != 1 {
		t.Fatalf("refresh wrong: %+v", blocks[0])
	}
}

func TestInvalidate(t *testing.T) {
	c := tiny()
	a := addrFor(1, 0)
	c.Install(a, true, 2)
	blk, ok := c.Invalidate(a)
	if !ok || !blk.Dirty || blk.Owner != 2 {
		t.Fatalf("Invalidate returned %+v ok=%v", blk, ok)
	}
	if c.Probe(a) {
		t.Fatal("block still present after Invalidate")
	}
	if _, ok := c.Invalidate(a); ok {
		t.Fatal("second Invalidate should miss")
	}
}

func TestLRUOf(t *testing.T) {
	c := tiny()
	if _, _, ok := c.LRUOf(addrFor(0, 1)); ok {
		t.Fatal("empty set must report no LRU")
	}
	a, b := addrFor(1, 1), addrFor(2, 1)
	c.Install(a, false, 0)
	c.Install(b, false, 0)
	_, addr, ok := c.LRUOf(addrFor(9, 1))
	if !ok || addr.Block() != a.Block() {
		t.Fatalf("LRUOf wrong: %v ok=%v", addr, ok)
	}
}

func TestOccupancyByOwner(t *testing.T) {
	c := New("t", memaddr.NewGeometrySets(4, 4))
	c.Install(addrFor(1, 0), false, 0)
	c.Install(addrFor(2, 0), false, 1)
	c.Install(addrFor(3, 1), false, 1)
	counts := c.OccupancyByOwner(4)
	if counts[0] != 1 || counts[1] != 2 || counts[2] != 0 {
		t.Fatalf("occupancy wrong: %v", counts)
	}
}

func TestSetsAreIndependent(t *testing.T) {
	c := tiny()
	c.Install(addrFor(1, 0), false, 0)
	c.Install(addrFor(1, 1), false, 0)
	c.Install(addrFor(2, 0), false, 0)
	c.Install(addrFor(3, 0), false, 0) // evicts from set 0 only
	if !c.Probe(addrFor(1, 1)) {
		t.Fatal("set 1 disturbed by set 0 evictions")
	}
}

func TestReset(t *testing.T) {
	c := tiny()
	c.Install(addrFor(1, 0), false, 0)
	c.Access(addrFor(1, 0), false)
	c.Reset()
	if c.Probe(addrFor(1, 0)) || c.Stats.Accesses != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Fatal("empty HitRate must be 0")
	}
	s = Stats{Accesses: 4, Hits: 3}
	if s.HitRate() != 0.75 {
		t.Fatal("HitRate wrong")
	}
}

// Property: under arbitrary access/install sequences the cache never
// violates its structural invariants, and a hit via Access implies a prior
// Install without an intervening eviction of that block.
func TestPropertyInvariants(t *testing.T) {
	f := func(seed uint64, opsRaw []uint16) bool {
		c := New("p", memaddr.NewGeometrySets(8, 4))
		r := rng.New(seed)
		present := map[memaddr.Addr]bool{}
		for _, op := range opsRaw {
			a := addrFor(uint64(op%32), r.Intn(8))
			switch op % 3 {
			case 0:
				hit, _ := c.Access(a, op%2 == 0)
				if hit != present[a.Block()] {
					return false
				}
			case 1:
				victim, vaddr := c.Install(a, false, int(op%4))
				present[a.Block()] = true
				if victim.Valid {
					delete(present, vaddr.Block())
				}
			case 2:
				if _, ok := c.Invalidate(a); ok {
					delete(present, a.Block())
				}
			}
			if c.CheckInvariants() != "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cyclic access over k distinct blocks in one set hits iff the
// associativity is >= k — the foundation of the Fig. 3 way-sensitivity
// model in internal/workload.
func TestCyclicWorkingSetLRUBehaviour(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8} {
		for k := 1; k <= 10; k++ {
			c := New("cyc", memaddr.NewGeometrySets(2, ways))
			// Warm up two full rounds, then measure one round.
			misses := 0
			for round := 0; round < 3; round++ {
				for i := 0; i < k; i++ {
					a := addrFor(uint64(i+1), 0)
					hit, _ := c.Access(a, false)
					if !hit {
						c.Install(a, false, 0)
						if round == 2 {
							misses++
						}
					} else if round == 2 {
						// ok
						_ = hit
					}
				}
			}
			if k <= ways && misses != 0 {
				t.Fatalf("ways=%d k=%d: expected all hits, got %d misses", ways, k, misses)
			}
			if k > ways && misses != k {
				t.Fatalf("ways=%d k=%d: expected full thrash (%d misses), got %d", ways, k, k, misses)
			}
		}
	}
}
