package hierarchy

import (
	"fmt"

	"nucasim/internal/cache"
	"nucasim/internal/tlb"
)

// CoreState is the serializable upper-hierarchy state of one core.
type CoreState struct {
	L1I, L1D cache.State
	L2I, L2D cache.State
	ITLB     tlb.State
	DTLB     tlb.State
}

// State captures every core's L1/L2/TLB contents and statistics. The
// last-level organization is checkpointed separately by its owner.
type State struct {
	Cores []CoreState
}

// Snapshot captures the full upper-hierarchy state.
func (h *Hierarchy) Snapshot() State {
	s := State{Cores: make([]CoreState, h.cfg.Cores)}
	for i := 0; i < h.cfg.Cores; i++ {
		s.Cores[i] = CoreState{
			L1I:  h.l1i[i].Snapshot(),
			L1D:  h.l1d[i].Snapshot(),
			L2I:  h.l2i[i].Snapshot(),
			L2D:  h.l2d[i].Snapshot(),
			ITLB: h.itlbs[i].Snapshot(),
			DTLB: h.dtlbs[i].Snapshot(),
		}
	}
	return s
}

// Restore loads a snapshot taken from an identically configured
// hierarchy.
func (h *Hierarchy) Restore(s State) error {
	if len(s.Cores) != h.cfg.Cores {
		return fmt.Errorf("hierarchy: state is for %d cores, hierarchy has %d", len(s.Cores), h.cfg.Cores)
	}
	for i := 0; i < h.cfg.Cores; i++ {
		cs := s.Cores[i]
		if err := h.l1i[i].Restore(cs.L1I); err != nil {
			return err
		}
		if err := h.l1d[i].Restore(cs.L1D); err != nil {
			return err
		}
		if err := h.l2i[i].Restore(cs.L2I); err != nil {
			return err
		}
		if err := h.l2d[i].Restore(cs.L2D); err != nil {
			return err
		}
		if err := h.itlbs[i].Restore(cs.ITLB); err != nil {
			return fmt.Errorf("hierarchy: core %d I-TLB: %w", i, err)
		}
		if err := h.dtlbs[i].Restore(cs.DTLB); err != nil {
			return fmt.Errorf("hierarchy: core %d D-TLB: %w", i, err)
		}
	}
	return nil
}
