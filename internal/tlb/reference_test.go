package tlb

import (
	"fmt"
	"reflect"
	"testing"

	"nucasim/internal/memaddr"
	"nucasim/internal/rng"
)

// This file keeps the linear-scan TLB that the linked-slot TLB
// replaced, unchanged apart from its names, as the oracle the
// differential tests below drive side by side with TLB.

// refTLB is a fully-associative, true-LRU translation buffer.
type refTLB struct {
	cfg   Config
	pages []uint64 // MRU→LRU order
	Stats Stats
}

// newRef builds a TLB; zero Config fields take Table 1 defaults.
func newRef(cfg Config) *refTLB {
	cfg = cfg.withDefaults()
	return &refTLB{cfg: cfg, pages: make([]uint64, 0, cfg.Entries)}
}

// Access looks up the page of addr, updating LRU order and filling on a
// miss. It returns the cycles the translation adds to the access: 0 on a
// hit, the miss penalty on a miss.
func (t *refTLB) Access(addr memaddr.Addr) (penalty int) {
	t.Stats.Accesses++
	page := addr.Page()
	for i, p := range t.pages {
		if p == page {
			copy(t.pages[1:i+1], t.pages[:i])
			t.pages[0] = page
			return 0
		}
	}
	t.Stats.Misses++
	if len(t.pages) < t.cfg.Entries {
		t.pages = append(t.pages, 0)
	}
	copy(t.pages[1:], t.pages[:len(t.pages)-1])
	t.pages[0] = page
	return t.cfg.MissPenalty
}

// Reset clears entries and statistics.
func (t *refTLB) Reset() {
	t.pages = t.pages[:0]
	t.Stats = Stats{}
}

// Snapshot captures the resident translations (MRU→LRU) and statistics.
func (t *refTLB) Snapshot() State {
	return State{Pages: append([]uint64(nil), t.pages...), Stats: t.Stats}
}

// Restore loads a snapshot taken from an identically configured TLB.
func (t *refTLB) Restore(s State) error {
	if len(s.Pages) > t.cfg.Entries {
		return fmt.Errorf("tlb: state has %d pages, capacity %d", len(s.Pages), t.cfg.Entries)
	}
	t.pages = append(t.pages[:0], s.Pages...)
	t.Stats = s.Stats
	return nil
}

// Len reports the number of resident translations (for tests).
func (t *refTLB) Len() int { return len(t.pages) }

// diffConfigs are the TLB sizes the differential tests cover: one and
// two entries, a size that is not a power of two, and Table 1's.
func diffConfigs() []Config {
	return []Config{{Entries: 1}, {Entries: 2}, {Entries: 7}, {Entries: 16}, {}}
}

// runTLBDiff decodes ops, two bytes per operation, and applies each to a
// TLB and to the reference TLB of the same configuration, failing on the
// first penalty, statistic, length or snapshot that differs. Pages come
// from a pool a little wider than the capacity, so the stream hits at
// every depth and evicts.
func runTLBDiff(t testing.TB, cfg Config, ops []byte) {
	t.Helper()
	tb, ref := New(cfg), newRef(cfg)
	pool := uint64(tb.cfg.Entries + tb.cfg.Entries/2 + 2)
	for k := 0; k+1 < len(ops); k += 2 {
		op, arg := ops[k], ops[k+1]
		page := (uint64(op>>2)<<8 | uint64(arg)) % pool
		a := memaddr.Addr(page<<memaddr.PageBits | uint64(arg)<<4)
		if op&2 != 0 {
			a = a.WithSpace(int(op & 1))
		}
		switch {
		case op == 0xff && arg&0xf == 0:
			tb.Reset()
			ref.Reset()
		case op >= 0xf0 && arg&0x7 == 0:
			// Snapshot→Restore hop, crossed: each side resumes from
			// the other's snapshot.
			s1, s2 := tb.Snapshot(), ref.Snapshot()
			if !reflect.DeepEqual(s1, s2) {
				t.Fatalf("op %d snapshots differ:\nlinked    %+v\nreference %+v", k/2, s1, s2)
			}
			if err := tb.Restore(s2); err != nil {
				t.Fatalf("op %d Restore: %v", k/2, err)
			}
			if err := ref.Restore(s1); err != nil {
				t.Fatalf("op %d reference Restore: %v", k/2, err)
			}
		default:
			if p1, p2 := tb.Access(a), ref.Access(a); p1 != p2 {
				t.Fatalf("op %d Access(%v) = %d; reference %d", k/2, a, p1, p2)
			}
		}
		if tb.Stats != ref.Stats || tb.Len() != ref.Len() {
			t.Fatalf("op %d stats %+v len %d; reference %+v len %d", k/2, tb.Stats, tb.Len(), ref.Stats, ref.Len())
		}
	}
	if s1, s2 := tb.Snapshot(), ref.Snapshot(); !reflect.DeepEqual(s1, s2) {
		t.Fatalf("final snapshots differ:\nlinked    %+v\nreference %+v", s1, s2)
	}
}

// TestTLBMatchesReference drives the linked-slot TLB and the linear-scan
// reference with the same random operation streams at every size of
// diffConfigs.
func TestTLBMatchesReference(t *testing.T) {
	r := rng.New(7)
	ops := make([]byte, 2*50000)
	for _, cfg := range diffConfigs() {
		for seed := 0; seed < 4; seed++ {
			for i := range ops {
				ops[i] = byte(r.Uint64())
			}
			runTLBDiff(t, cfg, ops)
		}
	}
}

// FuzzTLBMatchesReference decodes arbitrary bytes into a size choice and
// an operation stream and runs it against the reference.
func FuzzTLBMatchesReference(f *testing.F) {
	f.Add([]byte{4, 0, 1, 0, 2, 0, 3, 0, 1, 0, 9, 0xf0, 0, 0, 2})
	f.Add([]byte{2, 0, 1, 0, 2, 0, 1, 0, 3, 0xff, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfgs := diffConfigs()
		runTLBDiff(t, cfgs[int(data[0])%len(cfgs)], data[1:])
	})
}
