package workload

import "fmt"

// GeneratorState is the serializable mutable state of a Generator. The
// derived tables (layer bases, cumulative weights, branch slots, Zipf
// constants) are functions of AppParams and are rebuilt by NewGenerator,
// and the producer indexes are functions of ClassRing and Count, rebuilt
// by Restore; only the stream position is captured. Restore expects a
// generator constructed with the same params, space and (re-seeded,
// position-irrelevant) rng — the rng state snapshot overwrites the fresh
// stream.
type GeneratorState struct {
	RNG [4]uint64

	LayerPos   []uint64
	LayerLeft  []int
	LayerBlock []uint64

	PCIndex     uint64
	Count       uint64
	WindowStart uint64
	WindowLaps  uint64

	ClassRing  [depWindow]Class
	SiteVisits []uint32
}

// State snapshots the generator's stream position.
func (g *Generator) State() GeneratorState {
	return GeneratorState{
		RNG:         g.r.State(),
		LayerPos:    append([]uint64(nil), g.layerPos...),
		LayerLeft:   append([]int(nil), g.layerLeft...),
		LayerBlock:  append([]uint64(nil), g.layerBlock...),
		PCIndex:     g.pcIndex,
		Count:       g.count,
		WindowStart: g.windowStart,
		WindowLaps:  g.windowLaps,
		ClassRing:   g.classRing,
		SiteVisits:  append([]uint32(nil), g.siteVisits...),
	}
}

// Restore rewinds the generator to a snapshot taken from a generator
// built with identical parameters.
func (g *Generator) Restore(s GeneratorState) error {
	if len(s.LayerPos) != len(g.layerPos) || len(s.LayerLeft) != len(g.layerLeft) ||
		len(s.LayerBlock) != len(g.layerBlock) {
		return fmt.Errorf("workload: state has %d layers, generator has %d", len(s.LayerPos), len(g.layerPos))
	}
	if len(s.SiteVisits) != len(g.siteVisits) {
		return fmt.Errorf("workload: state has %d branch sites, generator has %d", len(s.SiteVisits), len(g.siteVisits))
	}
	window := g.windowSize()
	if s.WindowStart > g.codeInstrs-window {
		return fmt.Errorf("workload: state WindowStart %d leaves no %d-instruction window in a %d-instruction code region",
			s.WindowStart, window, g.codeInstrs)
	}
	if s.PCIndex < s.WindowStart || s.PCIndex-s.WindowStart >= window {
		return fmt.Errorf("workload: state PCIndex %d is outside its window [%d, %d)",
			s.PCIndex, s.WindowStart, s.WindowStart+window)
	}
	for i, pos := range s.LayerPos {
		if blocks := uint64(g.P.Layers[i].Blocks); pos >= blocks {
			return fmt.Errorf("workload: state LayerPos[%d] %d is outside a layer of %d blocks", i, pos, blocks)
		}
	}
	g.r.Restore(s.RNG)
	copy(g.layerPos, s.LayerPos)
	copy(g.layerLeft, s.LayerLeft)
	copy(g.layerBlock, s.LayerBlock)
	g.pcIndex = s.PCIndex
	g.count = s.Count
	g.windowStart = s.WindowStart
	g.windowLaps = s.WindowLaps
	g.classRing = s.ClassRing
	copy(g.siteVisits, s.SiteVisits)
	// Rebuild the producer indexes from the instructions still in the
	// window; anything older is out of pickProducer's reach.
	g.lastLoad = 0
	g.lastProducer = [depWindow]uint64{}
	for c := max(s.Count, depWindow) - depWindow + 1; c <= s.Count; c++ {
		g.record(c, s.ClassRing[c%depWindow])
	}
	return nil
}
