package workload

import (
	"testing"

	"nucasim/internal/rng"
)

func TestParallelSuiteShape(t *testing.T) {
	suite := ParallelSuite()
	if len(suite) < 3 {
		t.Fatalf("parallel suite has %d apps, want >= 3", len(suite))
	}
	for _, p := range suite {
		shared := 0
		sum := 0.0
		for _, l := range p.Layers {
			sum += l.Frac
			if l.Shared {
				shared++
			}
		}
		if shared == 0 {
			t.Errorf("%s: no shared layer", p.Name)
		}
		if sum < 0.95 || sum > 1.05 {
			t.Errorf("%s: fractions sum to %.2f", p.Name, sum)
		}
	}
}

func TestSharedLayerAddressesLandInSharedSpace(t *testing.T) {
	p, _ := ByName("fftp")
	g := NewGenerator(p, 2, rng.New(1))
	var ins Instr
	sawShared, sawPrivate := false, false
	for i := 0; i < 100_000; i++ {
		g.Next(&ins)
		if ins.Class != Load && ins.Class != Store {
			continue
		}
		switch ins.Addr.Space() {
		case SharedSpace:
			sawShared = true
		case 2:
			sawPrivate = true
		default:
			t.Fatalf("address in unexpected space %d", ins.Addr.Space())
		}
	}
	if !sawShared || !sawPrivate {
		t.Fatalf("expected both shared and private traffic: shared=%v private=%v", sawShared, sawPrivate)
	}
}

func TestSharedAddressesIdenticalAcrossThreads(t *testing.T) {
	// Two generator instances of the same parallel app (different cores,
	// different seeds) must draw shared-layer addresses from the SAME
	// region, or the "shared" data would not actually be shared.
	p, _ := ByName("oceanp")
	collect := func(space int, seed uint64) map[uint64]bool {
		g := NewGenerator(p, space, rng.New(seed))
		var ins Instr
		blocks := map[uint64]bool{}
		for i := 0; i < 200_000; i++ {
			g.Next(&ins)
			if (ins.Class == Load || ins.Class == Store) && ins.Addr.Space() == SharedSpace {
				blocks[ins.Addr.BlockNumber()] = true
			}
		}
		return blocks
	}
	a := collect(0, 1)
	b := collect(1, 2)
	overlap := 0
	minBlk, maxBlk := ^uint64(0), uint64(0)
	for blk := range a {
		if b[blk] {
			overlap++
		}
		if blk < minBlk {
			minBlk = blk
		}
		if blk > maxBlk {
			maxBlk = blk
		}
	}
	for blk := range b {
		if blk < minBlk {
			minBlk = blk
		}
		if blk > maxBlk {
			maxBlk = blk
		}
	}
	// Both threads must draw from one region (the Zipf tail keeps exact
	// block sets from matching, but the hot head overlaps heavily and the
	// union must fit the layer's extent).
	if overlap < len(a)/4 {
		t.Fatalf("threads share only %d of %d blocks; regions misaligned", overlap, len(a))
	}
	if span := maxBlk - minBlk; span > way8+64 {
		t.Fatalf("shared block span %d exceeds the layer's %d blocks: separate regions", span, way8)
	}
}

func TestSequentialSuiteHasNoSharedLayers(t *testing.T) {
	for _, p := range Suite() {
		for _, l := range p.Layers {
			if l.Shared {
				t.Fatalf("%s: multiprogrammed app has a shared layer", p.Name)
			}
		}
	}
}
