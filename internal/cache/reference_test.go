package cache

import (
	"fmt"
	"reflect"
	"testing"

	"nucasim/internal/memaddr"
	"nucasim/internal/rng"
)

// This file keeps the slice-per-set cache that the flat line array
// replaced, unchanged apart from its names and the deleted LRUOf, as the
// oracle the differential tests below drive side by side with Cache.

// refSet holds the ways of one set in MRU→LRU order. Position 0 is the most
// recently used block; position len-1 is the LRU block. Moving a block is a
// small memmove; associativity is at most 16 in every paper configuration.
type refSet struct {
	blocks []Block // blocks[0] = MRU ... blocks[n-1] = LRU; only Valid entries participate
}

// refCache is a set-associative cache with true-LRU replacement.
type refCache struct {
	Name  string
	Geom  memaddr.Geometry
	Stats Stats
	sets  []refSet
}

// newRef constructs a cache from a geometry. Name is used in diagnostics only.
func newRef(name string, geom memaddr.Geometry) *refCache {
	if !geom.Valid() {
		panic("cache: geometry must be built with memaddr.NewGeometry*")
	}
	c := &refCache{Name: name, Geom: geom}
	c.sets = make([]refSet, geom.Sets)
	blocks := make([]Block, geom.Sets*geom.Ways)
	for i := range c.sets {
		c.sets[i].blocks = blocks[i*geom.Ways : i*geom.Ways : (i+1)*geom.Ways]
	}
	return c
}

// Reset clears all blocks and statistics.
func (c *refCache) Reset() {
	for i := range c.sets {
		c.sets[i].blocks = c.sets[i].blocks[:0]
	}
	c.Stats = Stats{}
}

// Probe reports whether the address is present without updating LRU order
// or statistics.
func (c *refCache) Probe(a memaddr.Addr) bool {
	s := &c.sets[c.Geom.Set(a)]
	tag := c.Geom.Tag(a)
	for i := range s.blocks {
		if s.blocks[i].Valid && s.blocks[i].Tag == tag {
			return true
		}
	}
	return false
}

// Access performs a demand access. On a hit the block becomes MRU (and
// dirty if isWrite) and Access returns (true, stack position of the hit
// before promotion). On a miss it returns (false, -1) and does NOT fill;
// fills are a separate Install step so callers can model miss latency and
// choose fill policies.
func (c *refCache) Access(a memaddr.Addr, isWrite bool) (hit bool, lruPos int) {
	return c.AccessBlock(a.BlockNum(), isWrite)
}

// AccessBlock is Access for a precomputed block number: the hierarchy
// derives the block number once per reference and reuses it at every
// level, instead of re-splitting the full byte address per level.
func (c *refCache) AccessBlock(bn memaddr.BlockNum, isWrite bool) (hit bool, lruPos int) {
	c.Stats.Accesses++
	s := &c.sets[c.Geom.SetOfBlock(bn)]
	tag := c.Geom.TagOfBlock(bn)
	for i := range s.blocks {
		if s.blocks[i].Valid && s.blocks[i].Tag == tag {
			c.Stats.Hits++
			blk := s.blocks[i]
			if isWrite {
				blk.Dirty = true
			}
			// Promote to MRU.
			copy(s.blocks[1:i+1], s.blocks[:i])
			s.blocks[0] = blk
			return true, i
		}
	}
	c.Stats.Misses++
	return false, -1
}

// Install fills the block for address a as MRU, evicting the LRU block if
// the set is full. It returns the victim (Valid=false if none) and the
// victim's reconstructed block address. Install does not count as an
// access. Installing an already-present tag refreshes it to MRU instead of
// duplicating (this happens when two outstanding misses to the same block
// are not merged by the caller).
func (c *refCache) Install(a memaddr.Addr, dirty bool, owner int) (victim Block, victimAddr memaddr.Addr) {
	return c.InstallBlock(a.BlockNum(), dirty, owner)
}

// InstallBlock is Install for a precomputed block number.
func (c *refCache) InstallBlock(bn memaddr.BlockNum, dirty bool, owner int) (victim Block, victimAddr memaddr.Addr) {
	setIdx := c.Geom.SetOfBlock(bn)
	s := &c.sets[setIdx]
	tag := c.Geom.TagOfBlock(bn)
	for i := range s.blocks {
		if s.blocks[i].Valid && s.blocks[i].Tag == tag {
			blk := s.blocks[i]
			blk.Dirty = blk.Dirty || dirty
			blk.Owner = owner
			copy(s.blocks[1:i+1], s.blocks[:i])
			s.blocks[0] = blk
			return Block{}, 0
		}
	}
	newBlk := Block{Tag: tag, Valid: true, Dirty: dirty, Owner: owner}
	if len(s.blocks) < c.Geom.Ways {
		s.blocks = append(s.blocks, Block{})
		copy(s.blocks[1:], s.blocks[:len(s.blocks)-1])
		s.blocks[0] = newBlk
		return Block{}, 0
	}
	victim = s.blocks[len(s.blocks)-1]
	victimAddr = c.Geom.AddrFor(victim.Tag, setIdx)
	copy(s.blocks[1:], s.blocks[:len(s.blocks)-1])
	s.blocks[0] = newBlk
	c.Stats.Evictions++
	if victim.Dirty {
		c.Stats.Writebacks++
	}
	return victim, victimAddr
}

// MarkDirty sets the dirty bit of the block for address a, if present,
// without touching LRU order or statistics. Used for writebacks arriving
// from an upper level, which are not demand references.
func (c *refCache) MarkDirty(a memaddr.Addr) bool {
	return c.MarkDirtyBlock(a.BlockNum())
}

// MarkDirtyBlock is MarkDirty for a precomputed block number.
func (c *refCache) MarkDirtyBlock(bn memaddr.BlockNum) bool {
	s := &c.sets[c.Geom.SetOfBlock(bn)]
	tag := c.Geom.TagOfBlock(bn)
	for i := range s.blocks {
		if s.blocks[i].Valid && s.blocks[i].Tag == tag {
			s.blocks[i].Dirty = true
			return true
		}
	}
	return false
}

// Invalidate removes the block for address a if present, returning it.
func (c *refCache) Invalidate(a memaddr.Addr) (Block, bool) {
	s := &c.sets[c.Geom.Set(a)]
	tag := c.Geom.Tag(a)
	for i := range s.blocks {
		if s.blocks[i].Valid && s.blocks[i].Tag == tag {
			blk := s.blocks[i]
			s.blocks = append(s.blocks[:i], s.blocks[i+1:]...)
			return blk, true
		}
	}
	return Block{}, false
}

// BlocksInSet returns a copy of the blocks of set idx in MRU→LRU order.
func (c *refCache) BlocksInSet(idx int) []Block {
	out := make([]Block, len(c.sets[idx].blocks))
	copy(out, c.sets[idx].blocks)
	return out
}

// OccupancyByOwner counts valid blocks per owner core across the whole
// cache; used by pollution diagnostics for the shared baseline.
func (c *refCache) OccupancyByOwner(numCores int) []int {
	counts := make([]int, numCores)
	for i := range c.sets {
		for _, b := range c.sets[i].blocks {
			if b.Valid && b.Owner >= 0 && b.Owner < numCores {
				counts[b.Owner]++
			}
		}
	}
	return counts
}

// Snapshot captures the cache's full mutable state.
func (c *refCache) Snapshot() State {
	s := State{Sets: MakeStacks[Block](len(c.sets), len(c.sets)*c.Geom.Ways), Stats: c.Stats}
	for i := range c.sets {
		copy(s.Sets.Push(len(c.sets[i].blocks)), c.sets[i].blocks)
	}
	return s
}

// Restore loads a snapshot taken from an identically configured cache.
func (c *refCache) Restore(s State) error {
	next, err := s.Sets.Split(len(c.sets), c.Geom.Ways)
	if err != nil {
		return fmt.Errorf("cache %s: %w", c.Name, err)
	}
	for i := range c.sets {
		c.sets[i].blocks = append(c.sets[i].blocks[:0], next()...)
	}
	c.Stats = s.Stats
	return nil
}

// CheckInvariants verifies internal consistency (unique tags per set, no
// overflow); used by property tests. It returns an error description or "".
func (c *refCache) CheckInvariants() string {
	for i := range c.sets {
		s := &c.sets[i]
		if len(s.blocks) > c.Geom.Ways {
			return fmt.Sprintf("set %d holds %d blocks > %d ways", i, len(s.blocks), c.Geom.Ways)
		}
		for j, b := range s.blocks {
			if !b.Valid {
				return fmt.Sprintf("set %d contains an invalid block in-stack", i)
			}
			for _, o := range s.blocks[:j] {
				if o.Tag == b.Tag {
					return fmt.Sprintf("set %d contains duplicate tag %#x", i, b.Tag)
				}
			}
		}
	}
	return ""
}

// diffGeometries are the shapes the differential tests cover: a single
// set, 2/4/16-way caches, and the Table 1 L1, L2 and L3 arrays.
func diffGeometries() []memaddr.Geometry {
	return []memaddr.Geometry{
		memaddr.NewGeometrySets(1, 4),
		memaddr.NewGeometrySets(8, 2),
		memaddr.NewGeometrySets(16, 4),
		memaddr.NewGeometrySets(4, 16),
		memaddr.NewGeometry(64<<10, 2),  // L1I/L1D
		memaddr.NewGeometry(128<<10, 4), // L2I
		memaddr.NewGeometry(256<<10, 4), // L2D
		memaddr.NewGeometry(1<<20, 4),   // private L3 array
		memaddr.NewGeometry(4<<20, 16),  // shared L3
	}
}

// diffOpBytes is the size of one encoded operation of runCacheDiff.
const diffOpBytes = 3

// runCacheDiff decodes ops, three bytes per operation, and applies each
// operation to a Cache and to the reference cache of the same geometry,
// failing on the first return value, statistic or snapshot that
// differs. Tags come from a pool a little wider than the associativity
// and sets from a handful spread over the cache, so the stream hits,
// refreshes, evicts and invalidates.
func runCacheDiff(t testing.TB, geom memaddr.Geometry, ops []byte) {
	t.Helper()
	c, ref := New("flat", geom), newRef("ref", geom)
	stride := (geom.Sets + 7) / 8
	for k := 0; k+diffOpBytes <= len(ops); k += diffOpBytes {
		op, sel, arg := ops[k], ops[k+1], ops[k+2]
		tag := uint64(sel>>4) % uint64(2*geom.Ways+2)
		set := int(sel&0xf) % 9 * stride % geom.Sets
		if sel&0xf == 15 {
			set = geom.Sets - 1
		}
		a := geom.AddrFor(tag, set) + memaddr.Addr(arg&0x3f)
		if arg&0x40 != 0 {
			a = a.WithSpace(int(arg >> 7))
		}
		flag := arg&1 != 0
		owner := int(arg>>1)%5 - 1
		switch op % 10 {
		case 0:
			h1, p1 := c.Access(a, flag)
			h2, p2 := ref.Access(a, flag)
			if h1 != h2 || p1 != p2 {
				t.Fatalf("op %d Access(%v, %v) = %v, %d; reference %v, %d", k/diffOpBytes, a, flag, h1, p1, h2, p2)
			}
		case 1:
			h1, p1 := c.AccessBlock(a.BlockNum(), flag)
			h2, p2 := ref.AccessBlock(a.BlockNum(), flag)
			if h1 != h2 || p1 != p2 {
				t.Fatalf("op %d AccessBlock(%v, %v) = %v, %d; reference %v, %d", k/diffOpBytes, a, flag, h1, p1, h2, p2)
			}
		case 2, 3:
			v1, va1 := c.Install(a, flag, owner)
			v2, va2 := ref.Install(a, flag, owner)
			if v1 != v2 || va1 != va2 {
				t.Fatalf("op %d Install(%v, %v, %d) = %+v, %v; reference %+v, %v", k/diffOpBytes, a, flag, owner, v1, va1, v2, va2)
			}
		case 4:
			v1, va1 := c.InstallBlock(a.BlockNum(), flag, owner)
			v2, va2 := ref.InstallBlock(a.BlockNum(), flag, owner)
			if v1 != v2 || va1 != va2 {
				t.Fatalf("op %d InstallBlock(%v, %v, %d) = %+v, %v; reference %+v, %v", k/diffOpBytes, a, flag, owner, v1, va1, v2, va2)
			}
		case 5:
			var d1, d2 bool
			if flag {
				d1, d2 = c.MarkDirty(a), ref.MarkDirty(a)
			} else {
				d1, d2 = c.MarkDirtyBlock(a.BlockNum()), ref.MarkDirtyBlock(a.BlockNum())
			}
			if d1 != d2 {
				t.Fatalf("op %d MarkDirty(%v) = %v; reference %v", k/diffOpBytes, a, d1, d2)
			}
		case 6:
			b1, ok1 := c.Invalidate(a)
			b2, ok2 := ref.Invalidate(a)
			if b1 != b2 || ok1 != ok2 {
				t.Fatalf("op %d Invalidate(%v) = %+v, %v; reference %+v, %v", k/diffOpBytes, a, b1, ok1, b2, ok2)
			}
		case 7:
			if p1, p2 := c.Probe(a), ref.Probe(a); p1 != p2 {
				t.Fatalf("op %d Probe(%v) = %v; reference %v", k/diffOpBytes, a, p1, p2)
			}
			if b1, b2 := c.BlocksInSet(set), ref.BlocksInSet(set); !reflect.DeepEqual(b1, b2) {
				t.Fatalf("op %d BlocksInSet(%d) = %+v; reference %+v", k/diffOpBytes, set, b1, b2)
			}
			if arg >= 16 {
				break // the whole-cache scans below are rarer
			}
			if o1, o2 := c.OccupancyByOwner(4), ref.OccupancyByOwner(4); !reflect.DeepEqual(o1, o2) {
				t.Fatalf("op %d OccupancyByOwner = %v; reference %v", k/diffOpBytes, o1, o2)
			}
		case 8:
			if arg >= 16 {
				break
			}
			// Snapshot→Restore hop, crossed: each side resumes from
			// the other's snapshot.
			s1, s2 := c.Snapshot(), ref.Snapshot()
			if !reflect.DeepEqual(s1, s2) {
				t.Fatalf("op %d snapshots differ:\nflat      %+v\nreference %+v", k/diffOpBytes, s1, s2)
			}
			if err := c.Restore(s2); err != nil {
				t.Fatalf("op %d Restore: %v", k/diffOpBytes, err)
			}
			if err := ref.Restore(s1); err != nil {
				t.Fatalf("op %d reference Restore: %v", k/diffOpBytes, err)
			}
		case 9:
			if arg == 0xff {
				c.Reset()
				ref.Reset()
			}
		}
		if c.Stats != ref.Stats {
			t.Fatalf("op %d stats %+v; reference %+v", k/diffOpBytes, c.Stats, ref.Stats)
		}
	}
	if msg := c.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	if s1, s2 := c.Snapshot(), ref.Snapshot(); !reflect.DeepEqual(s1, s2) {
		t.Fatalf("final snapshots differ:\nflat      %+v\nreference %+v", s1, s2)
	}
}

// TestCacheMatchesReference drives the flat cache and the slice-per-set
// reference with the same random operation streams over every shape of
// diffGeometries.
func TestCacheMatchesReference(t *testing.T) {
	r := rng.New(7)
	ops := make([]byte, 20000*diffOpBytes)
	for _, geom := range diffGeometries() {
		for seed := 0; seed < 4; seed++ {
			for i := range ops {
				ops[i] = byte(r.Uint64())
			}
			runCacheDiff(t, geom, ops)
		}
	}
}

// FuzzCacheMatchesReference decodes arbitrary bytes into a geometry
// choice and an operation stream and runs it against the reference.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{0, 2, 0x10, 0, 2, 0x20, 0, 2, 0x30, 0, 0, 0x10, 1, 8, 0, 0})
	f.Add([]byte{3, 4, 0x15, 3, 2, 0x25, 3, 4, 0x35, 3, 6, 0x15, 0, 8, 0, 0, 6, 0x15, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		geoms := diffGeometries()
		runCacheDiff(t, geoms[int(data[0])%len(geoms)], data[1:])
	})
}
