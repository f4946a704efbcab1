// Package cache implements the generic set-associative, true-LRU cache used
// for the L1 and L2 levels and for the baseline last-level organizations
// (private, shared, cooperative). The paper's adaptive organization needs a
// partitioned set structure and lives in internal/core, but it shares this
// package's shadow-tag table.
//
// The cache is a timing-model cache: it tracks tags, LRU order, dirtiness
// and the fetching core, but holds no data. All methods operate on block
// addresses; callers are expected to pass addresses tagged with an
// address-space id (memaddr.Addr.WithSpace) when simulating multiprogrammed
// cores.
package cache

import (
	"fmt"

	"nucasim/internal/memaddr"
)

// Block is one cache line's metadata.
type Block struct {
	Tag   uint64
	Valid bool
	Dirty bool
	Owner int // core id that fetched the block (Figure 4(a) core ID field)
}

// set holds the ways of one set in MRU→LRU order. Position 0 is the most
// recently used block; position len-1 is the LRU block. Moving a block is a
// small memmove; associativity is at most 16 in every paper configuration.
type set struct {
	blocks []Block // blocks[0] = MRU ... blocks[n-1] = LRU; only Valid entries participate
}

// Stats counts the cache's externally visible events.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64 // valid blocks displaced by fills
	Writebacks uint64 // dirty blocks displaced by fills
}

// HitRate returns hits/accesses, or 0 with no accesses.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Cache is a set-associative cache with true-LRU replacement.
type Cache struct {
	Name  string
	Geom  memaddr.Geometry
	Stats Stats
	sets  []set
}

// New constructs a cache from a geometry. Name is used in diagnostics only.
func New(name string, geom memaddr.Geometry) *Cache {
	if !geom.Valid() {
		panic("cache: geometry must be built with memaddr.NewGeometry*")
	}
	c := &Cache{Name: name, Geom: geom}
	c.sets = make([]set, geom.Sets)
	blocks := make([]Block, geom.Sets*geom.Ways)
	for i := range c.sets {
		c.sets[i].blocks = blocks[i*geom.Ways : i*geom.Ways : (i+1)*geom.Ways]
	}
	return c
}

// Reset clears all blocks and statistics.
func (c *Cache) Reset() {
	for i := range c.sets {
		c.sets[i].blocks = c.sets[i].blocks[:0]
	}
	c.Stats = Stats{}
}

// Probe reports whether the address is present without updating LRU order
// or statistics.
func (c *Cache) Probe(a memaddr.Addr) bool {
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
func (c *Cache) Access(a memaddr.Addr, isWrite bool) (hit bool, lruPos int) {
	return c.AccessBlock(a.BlockNum(), isWrite)
}

// AccessBlock is Access for a precomputed block number: the hierarchy
// derives the block number once per reference and reuses it at every
// level, instead of re-splitting the full byte address per level.
func (c *Cache) AccessBlock(bn memaddr.BlockNum, isWrite bool) (hit bool, lruPos int) {
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
func (c *Cache) Install(a memaddr.Addr, dirty bool, owner int) (victim Block, victimAddr memaddr.Addr) {
	return c.InstallBlock(a.BlockNum(), dirty, owner)
}

// InstallBlock is Install for a precomputed block number.
func (c *Cache) InstallBlock(bn memaddr.BlockNum, dirty bool, owner int) (victim Block, victimAddr memaddr.Addr) {
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
func (c *Cache) MarkDirty(a memaddr.Addr) bool {
	return c.MarkDirtyBlock(a.BlockNum())
}

// MarkDirtyBlock is MarkDirty for a precomputed block number.
func (c *Cache) MarkDirtyBlock(bn memaddr.BlockNum) bool {
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
func (c *Cache) Invalidate(a memaddr.Addr) (Block, bool) {
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

// LRUOf returns the LRU block of the set containing a, without modifying
// state. ok is false for an empty set.
func (c *Cache) LRUOf(a memaddr.Addr) (blk Block, addr memaddr.Addr, ok bool) {
	setIdx := c.Geom.Set(a)
	s := &c.sets[setIdx]
	if len(s.blocks) == 0 {
		return Block{}, 0, false
	}
	blk = s.blocks[len(s.blocks)-1]
	return blk, c.Geom.AddrFor(blk.Tag, setIdx), true
}

// BlocksInSet returns a copy of the blocks of set idx in MRU→LRU order.
func (c *Cache) BlocksInSet(idx int) []Block {
	out := make([]Block, len(c.sets[idx].blocks))
	copy(out, c.sets[idx].blocks)
	return out
}

// OccupancyByOwner counts valid blocks per owner core across the whole
// cache; used by pollution diagnostics for the shared baseline.
func (c *Cache) OccupancyByOwner(numCores int) []int {
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

// State is the serializable mutable state of a Cache: every set's
// blocks MRU→LRU, one stack per set, and the statistics.
type State struct {
	Sets  Stacks[Block]
	Stats Stats
}

// Snapshot captures the cache's full mutable state.
func (c *Cache) Snapshot() State {
	s := State{Sets: MakeStacks[Block](len(c.sets), len(c.sets)*c.Geom.Ways), Stats: c.Stats}
	for i := range c.sets {
		copy(s.Sets.Push(len(c.sets[i].blocks)), c.sets[i].blocks)
	}
	return s
}

// Restore loads a snapshot taken from an identically configured cache.
func (c *Cache) Restore(s State) error {
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
func (c *Cache) CheckInvariants() string {
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
