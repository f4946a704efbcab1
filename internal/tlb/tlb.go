// Package tlb models the baseline's translation lookaside buffers:
// 128-entry, fully associative, LRU, with a 30-cycle miss penalty
// (Table 1). Each core has an I-TLB and a D-TLB.
//
// The simulator runs each program in its own flat address space, so the
// TLB only contributes timing (the miss penalty); no translation is
// performed.
package tlb

import (
	"fmt"
	"slices"

	"nucasim/internal/memaddr"
)

// Config sizes a TLB. Zero fields select Table 1 defaults.
type Config struct {
	Entries     int // default 128
	MissPenalty int // default 30 cycles
}

func (c Config) withDefaults() Config {
	if c.Entries == 0 {
		c.Entries = 128
	}
	if c.MissPenalty == 0 {
		c.MissPenalty = 30
	}
	return c
}

// Stats counts TLB events.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns misses/accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// TLB is a fully-associative, true-LRU translation buffer with O(1) hits
// and misses. Resident pages sit in fixed slots chained on a doubly
// linked recency list (head = MRU, tail = LRU), and an open-addressed
// index maps a page to its slot, so neither a hit deep in the stack nor
// an eviction moves any other entry.
type TLB struct {
	cfg   Config
	Stats Stats
	slots []slot  // resident translations; len is the resident count
	head  int32   // MRU slot, or -1 when empty
	tail  int32   // LRU slot, or -1 when empty
	index []entry // linear probing; len is a power of two >= 4·Entries
	shift uint    // 64 - log2(len(index)), for Fibonacci hashing
}

// slot is one resident translation and its recency neighbours.
type slot struct {
	page       uint64
	prev, next int32 // towards MRU / towards LRU; -1 ends the list
}

// entry is one index bucket: a page and its slot + 1, 0 when empty.
type entry struct {
	page uint64
	slot int32
}

// New builds a TLB; zero Config fields take Table 1 defaults.
func New(cfg Config) *TLB {
	cfg = cfg.withDefaults()
	size, bits := 1, uint(0)
	for size < 4*cfg.Entries {
		size, bits = size<<1, bits+1
	}
	return &TLB{
		cfg:   cfg,
		slots: make([]slot, 0, cfg.Entries),
		head:  -1,
		tail:  -1,
		index: make([]entry, size),
		shift: 64 - bits,
	}
}

// home returns the index bucket a page's probe sequence starts at.
func (t *TLB) home(page uint64) int {
	return int((page * 0x9E3779B97F4A7C15) >> t.shift)
}

// find returns the bucket holding page, or the empty bucket that ends
// its probe sequence.
func (t *TLB) find(page uint64) int {
	mask := len(t.index) - 1
	for h := t.home(page); ; h = (h + 1) & mask {
		if e := &t.index[h]; e.slot == 0 || e.page == page {
			return h
		}
	}
}

// erase removes page's bucket, shifting later buckets of the same probe
// run back so that every remaining page stays reachable from its home.
func (t *TLB) erase(page uint64) {
	mask := len(t.index) - 1
	hole := t.find(page)
	for j := (hole + 1) & mask; t.index[j].slot != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole unless its home lies
		// cyclically in (hole, j].
		if (j-t.home(t.index[j].page))&mask >= (j-hole)&mask {
			t.index[hole] = t.index[j]
			hole = j
		}
	}
	t.index[hole] = entry{}
}

// unlink takes slot s off the recency list.
func (t *TLB) unlink(s int32) {
	sl := &t.slots[s]
	if sl.prev >= 0 {
		t.slots[sl.prev].next = sl.next
	} else {
		t.head = sl.next
	}
	if sl.next >= 0 {
		t.slots[sl.next].prev = sl.prev
	} else {
		t.tail = sl.prev
	}
}

// pushFront links slot s in as MRU.
func (t *TLB) pushFront(s int32) {
	t.slots[s].prev, t.slots[s].next = -1, t.head
	if t.head >= 0 {
		t.slots[t.head].prev = s
	} else {
		t.tail = s
	}
	t.head = s
}

// Access looks up the page of addr, updating LRU order and filling on a
// miss. It returns the cycles the translation adds to the access: 0 on a
// hit, the miss penalty on a miss.
func (t *TLB) Access(addr memaddr.Addr) (penalty int) {
	t.Stats.Accesses++
	page := addr.Page()
	if t.head >= 0 && t.slots[t.head].page == page {
		return 0
	}
	h := t.find(page)
	if s := t.index[h].slot - 1; s >= 0 {
		t.unlink(s)
		t.pushFront(s)
		return 0
	}
	t.Stats.Misses++
	s := int32(len(t.slots))
	if int(s) < t.cfg.Entries {
		t.slots = t.slots[:s+1]
	} else {
		s = t.tail
		t.unlink(s)
		t.erase(t.slots[s].page)
		h = t.find(page)
	}
	t.slots[s].page = page
	t.pushFront(s)
	t.index[h] = entry{page: page, slot: s + 1}
	return t.cfg.MissPenalty
}

// Reset clears entries and statistics.
func (t *TLB) Reset() {
	t.slots = t.slots[:0]
	t.head, t.tail = -1, -1
	clear(t.index)
	t.Stats = Stats{}
}

// State is the serializable mutable state of a TLB.
type State struct {
	Pages []uint64
	Stats Stats
}

// Snapshot captures the resident translations (MRU→LRU) and statistics.
func (t *TLB) Snapshot() State {
	var pages []uint64 // nil when empty, as a copy of nothing is
	if len(t.slots) > 0 {
		pages = make([]uint64, 0, len(t.slots))
	}
	for s := t.head; s >= 0; s = t.slots[s].next {
		pages = append(pages, t.slots[s].page)
	}
	return State{Pages: pages, Stats: t.Stats}
}

// Restore loads a snapshot taken from an identically configured TLB. A
// page listed twice is refused: the second copy would hold an entry no
// lookup reaches. On error the TLB is unchanged.
func (t *TLB) Restore(s State) error {
	if len(s.Pages) > t.cfg.Entries {
		return fmt.Errorf("tlb: state has %d pages, capacity %d", len(s.Pages), t.cfg.Entries)
	}
	for i, p := range s.Pages {
		if slices.Contains(s.Pages[:i], p) {
			return fmt.Errorf("tlb: state lists page %#x twice", p)
		}
	}
	t.Reset()
	for _, p := range s.Pages {
		n := int32(len(t.slots))
		t.slots = append(t.slots, slot{page: p, prev: t.tail, next: -1})
		if t.tail >= 0 {
			t.slots[t.tail].next = n
		} else {
			t.head = n
		}
		t.tail = n
		t.index[t.find(p)] = entry{page: p, slot: n + 1}
	}
	t.Stats = s.Stats
	return nil
}

// Len reports the number of resident translations (for tests).
func (t *TLB) Len() int { return len(t.slots) }
