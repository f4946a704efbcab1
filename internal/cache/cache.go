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
	"math"
	"math/bits"

	"nucasim/internal/memaddr"
)

// Block is one cache line's metadata.
type Block struct {
	Tag   uint64
	Valid bool
	Dirty bool
	Owner int // core id that fetched the block (Figure 4(a) core ID field)
}

// line is one resident way in the flat line array: 16 bytes, so four
// ways share a 64-byte host cache line. Validity is implied by position
// (the first n[set] lines of a set are valid), and the owner is a core
// id, stored in 32 bits.
type line struct {
	tag   uint64
	owner int32
	dirty bool
}

// block expands a resident line into the exported Block form.
func (l line) block() Block {
	return Block{Tag: l.tag, Valid: true, Dirty: l.dirty, Owner: int(l.owner)}
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
//
// Every set lives in one flat array: set i holds lines[i·Ways :
// i·Ways+n[i]] in MRU→LRU order, so a lookup reads the set's count and
// its lines directly, with no per-set slice header in between. Moving a
// line is a short shift; associativity is at most 16 in every paper
// configuration.
type Cache struct {
	Name  string
	Geom  memaddr.Geometry
	Stats Stats
	lines []line
	n     []uint16 // resident lines per set

	// setMask and setBits split a block number into set and tag, as
	// Geom does. The block paths read these copies: a call through the
	// Geom value copies all of Geom first.
	setMask uint64
	setBits uint
}

// New constructs a cache from a geometry. Name is used in diagnostics only.
// The associativity must fit the per-set count (at most 65535 ways, the
// same bound a checkpoint's Stacks lengths have).
func New(name string, geom memaddr.Geometry) *Cache {
	if !geom.Valid() {
		panic("cache: geometry must be built with memaddr.NewGeometry*")
	}
	if geom.Ways > math.MaxUint16 {
		panic(fmt.Sprintf("cache: %d ways exceed the per-set count limit %d", geom.Ways, math.MaxUint16))
	}
	return &Cache{
		Name:    name,
		Geom:    geom,
		lines:   make([]line, geom.Sets*geom.Ways),
		n:       make([]uint16, geom.Sets),
		setMask: uint64(geom.Sets - 1),
		setBits: uint(bits.TrailingZeros(uint(geom.Sets))),
	}
}

// setOf, tagOf and addrOf are Geom.SetOfBlock, Geom.TagOfBlock and
// Geom.AddrFor.
func (c *Cache) setOf(bn memaddr.BlockNum) int    { return int(uint64(bn) & c.setMask) }
func (c *Cache) tagOf(bn memaddr.BlockNum) uint64 { return uint64(bn) >> c.setBits }
func (c *Cache) addrOf(tag uint64, set int) memaddr.Addr {
	return memaddr.Addr((tag<<c.setBits | uint64(set)) << memaddr.BlockBits)
}

// set returns the resident lines of set idx, MRU first.
func (c *Cache) set(idx int) []line {
	base := idx * c.Geom.Ways
	return c.lines[base : base+int(c.n[idx])]
}

// find returns the way holding tag in s, or -1.
func find(s []line, tag uint64) int {
	for i := range s {
		if s[i].tag == tag {
			return i
		}
	}
	return -1
}

// promote moves s[i] to the MRU position, shifting s[:i] down one way.
func promote(s []line, i int) {
	l := s[i]
	for ; i > 0; i-- {
		s[i] = s[i-1]
	}
	s[0] = l
}

// Reset clears all blocks and statistics.
func (c *Cache) Reset() {
	clear(c.n)
	c.Stats = Stats{}
}

// Probe reports whether the address is present without updating LRU order
// or statistics.
func (c *Cache) Probe(a memaddr.Addr) bool {
	return find(c.set(c.Geom.Set(a)), c.Geom.Tag(a)) >= 0
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
	s := c.set(c.setOf(bn))
	i := find(s, c.tagOf(bn))
	if i < 0 {
		c.Stats.Misses++
		return false, -1
	}
	c.Stats.Hits++
	if isWrite {
		s[i].dirty = true
	}
	promote(s, i)
	return true, i
}

// Install fills the block for address a as MRU, evicting the LRU block if
// the set is full. It returns the victim (Valid=false if none) and the
// victim's reconstructed block address. Install does not count as an
// access. Installing an already-present tag refreshes it to MRU instead of
// duplicating (this happens when two outstanding misses to the same block
// are not merged by the caller). The owner is a core id.
func (c *Cache) Install(a memaddr.Addr, dirty bool, owner int) (victim Block, victimAddr memaddr.Addr) {
	return c.InstallBlock(a.BlockNum(), dirty, owner)
}

// InstallBlock is Install for a precomputed block number.
func (c *Cache) InstallBlock(bn memaddr.BlockNum, dirty bool, owner int) (victim Block, victimAddr memaddr.Addr) {
	setIdx := c.setOf(bn)
	tag := c.tagOf(bn)
	s := c.set(setIdx)
	if i := find(s, tag); i >= 0 {
		s[i].dirty = s[i].dirty || dirty
		s[i].owner = int32(owner)
		promote(s, i)
		return Block{}, 0
	}
	if n := len(s); n < c.Geom.Ways {
		c.n[setIdx]++
		s = s[:n+1]
	} else {
		victim = s[n-1].block()
		victimAddr = c.addrOf(victim.Tag, setIdx)
		c.Stats.Evictions++
		if victim.Dirty {
			c.Stats.Writebacks++
		}
	}
	s[len(s)-1] = line{tag: tag, owner: int32(owner), dirty: dirty}
	promote(s, len(s)-1)
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
	s := c.set(c.setOf(bn))
	i := find(s, c.tagOf(bn))
	if i < 0 {
		return false
	}
	s[i].dirty = true
	return true
}

// Invalidate removes the block for address a if present, returning it.
func (c *Cache) Invalidate(a memaddr.Addr) (Block, bool) {
	setIdx := c.Geom.Set(a)
	s := c.set(setIdx)
	i := find(s, c.Geom.Tag(a))
	if i < 0 {
		return Block{}, false
	}
	blk := s[i].block()
	copy(s[i:], s[i+1:])
	c.n[setIdx]--
	return blk, true
}

// BlocksInSet returns a copy of the blocks of set idx in MRU→LRU order.
func (c *Cache) BlocksInSet(idx int) []Block {
	s := c.set(idx)
	out := make([]Block, len(s))
	for i, l := range s {
		out[i] = l.block()
	}
	return out
}

// OccupancyByOwner counts valid blocks per owner core across the whole
// cache; used by pollution diagnostics for the shared baseline.
func (c *Cache) OccupancyByOwner(numCores int) []int {
	counts := make([]int, numCores)
	for i := range c.n {
		for _, l := range c.set(i) {
			if l.owner >= 0 && int(l.owner) < numCores {
				counts[l.owner]++
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
	s := State{Sets: MakeStacks[Block](len(c.n), len(c.lines)), Stats: c.Stats}
	for i := range c.n {
		set := c.set(i)
		out := s.Sets.Push(len(set))
		for j, l := range set {
			out[j] = l.block()
		}
	}
	return s
}

// Restore loads a snapshot taken from an identically configured cache.
// A stack entry that is not Valid, a tag held twice in one set, or an
// owner that is no core id is refused, naming the cache and set: no
// lookup would find such a way correctly. On such an error the cache is
// left empty.
func (c *Cache) Restore(s State) error {
	next, err := s.Sets.Split(len(c.n), c.Geom.Ways)
	if err != nil {
		return fmt.Errorf("cache %s: %w", c.Name, err)
	}
	for i := range c.n {
		stack := next()
		set := c.lines[i*c.Geom.Ways:][:len(stack)]
		for j := range stack {
			b := &stack[j]
			if !b.Valid || int(int32(b.Owner)) != b.Owner || find(set[:j], b.Tag) >= 0 {
				c.Reset()
				return fmt.Errorf("cache %s: set %d %s", c.Name, i, badWay(stack, j))
			}
			set[j] = line{tag: b.Tag, owner: int32(b.Owner), dirty: b.Dirty}
		}
		c.n[i] = uint16(len(stack))
	}
	c.Stats = s.Stats
	return nil
}

// badWay says why way j of a checkpointed set cannot be restored.
func badWay(stack []Block, j int) string {
	b := stack[j]
	switch {
	case !b.Valid:
		return fmt.Sprintf("holds an invalid block at way %d", j)
	case int(int32(b.Owner)) != b.Owner:
		return fmt.Sprintf("holds owner %d at way %d, not a core id", b.Owner, j)
	}
	return fmt.Sprintf("holds tag %#x twice", b.Tag)
}

// CheckInvariants verifies internal consistency (unique tags per set, no
// overflow); used by property tests. It returns an error description or "".
func (c *Cache) CheckInvariants() string {
	for i, n := range c.n {
		if int(n) > c.Geom.Ways {
			return fmt.Sprintf("set %d holds %d blocks > %d ways", i, n, c.Geom.Ways)
		}
		s := c.set(i)
		for j, l := range s {
			if find(s[:j], l.tag) >= 0 {
				return fmt.Sprintf("set %d contains duplicate tag %#x", i, l.tag)
			}
		}
	}
	return ""
}
