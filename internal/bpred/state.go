package bpred

import (
	"fmt"

	"nucasim/internal/cache"
	"nucasim/internal/memaddr"
)

// BTBEntryState is one BTB entry, exported for serialization.
type BTBEntryState struct {
	Tag    uint64
	Target memaddr.Addr
	Valid  bool
}

// State is the serializable mutable state of a Predictor; tables are
// stored as raw counter bytes and the BTB as one stack per set, MRU→LRU.
// Restore expects a predictor built with the same Config.
type State struct {
	Bimodal []uint8
	Level2  []uint8
	Chooser []uint8
	History uint64
	BTB     cache.Stacks[BTBEntryState]
	Stats   Stats
}

// Snapshot captures the predictor's full mutable state.
func (p *Predictor) Snapshot() State {
	s := State{
		Bimodal: counterBytes(p.bimodal),
		Level2:  counterBytes(p.level2),
		Chooser: counterBytes(p.chooser),
		History: p.history,
		BTB:     cache.MakeStacks[BTBEntryState](len(p.btb), len(p.btb)*p.cfg.BTBWays),
		Stats:   p.Stats,
	}
	for _, set := range p.btb {
		copy(s.BTB.Push(len(set)), set)
	}
	return s
}

// Restore loads a snapshot taken from an identically configured predictor.
func (p *Predictor) Restore(s State) error {
	if len(s.Bimodal) != len(p.bimodal) || len(s.Level2) != len(p.level2) || len(s.Chooser) != len(p.chooser) {
		return fmt.Errorf("bpred: state tables sized %d/%d/%d, predictor wants %d/%d/%d",
			len(s.Bimodal), len(s.Level2), len(s.Chooser), len(p.bimodal), len(p.level2), len(p.chooser))
	}
	next, err := s.BTB.Split(len(p.btb), p.cfg.BTBWays)
	if err != nil {
		return fmt.Errorf("bpred: BTB %w", err)
	}
	copyCounters(p.bimodal, s.Bimodal)
	copyCounters(p.level2, s.Level2)
	copyCounters(p.chooser, s.Chooser)
	p.history = s.History
	for i := range p.btb {
		p.btb[i] = append(p.btb[i][:0], next()...)
	}
	p.Stats = s.Stats
	return nil
}

func counterBytes(c []twoBit) []uint8 {
	out := make([]uint8, len(c))
	for i, v := range c {
		out[i] = uint8(v)
	}
	return out
}

func copyCounters(dst []twoBit, src []uint8) {
	for i, v := range src {
		dst[i] = twoBit(v)
	}
}
