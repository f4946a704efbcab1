package llc

import (
	"errors"
	"fmt"

	"nucasim/internal/cache"
)

// State is the serializable mutable state of a baseline organization:
// every array's blocks and statistics, the per-core statistics, and
// Cooperative's neighbour-choice stream (zero for the others).
// Configuration is not included: Restore expects an organization built
// with the same scheme, cores and geometry. The memory channel is the
// caller's to snapshot.
type State struct {
	Arrays  []cache.State
	PerCore []AccessStats
	Stream  [4]uint64
}

// Snapshot captures the organization's full mutable state.
func (b *base) Snapshot() State {
	s := State{Arrays: make([]cache.State, len(b.caches)), PerCore: append([]AccessStats(nil), b.perCore...)}
	for i, c := range b.caches {
		s.Arrays[i] = c.Snapshot()
	}
	return s
}

// Restore loads a snapshot taken from an identically built organization.
// A state with another array count or core count is refused before
// anything changes; an array whose geometry does not match is refused
// by cache.Restore, naming the array.
func (b *base) Restore(s State) error {
	if len(s.Arrays) != len(b.caches) {
		return fmt.Errorf("llc: state holds %d arrays, %s has %d", len(s.Arrays), b.name, len(b.caches))
	}
	if len(s.PerCore) != len(b.perCore) {
		return fmt.Errorf("llc: state holds statistics of %d cores, %s has %d", len(s.PerCore), b.name, len(b.perCore))
	}
	for i, c := range b.caches {
		if err := c.Restore(s.Arrays[i]); err != nil {
			return fmt.Errorf("llc: %w", err)
		}
	}
	copy(b.perCore, s.PerCore)
	return nil
}

// Snapshot captures the organization's state with its neighbour stream.
func (co *Cooperative) Snapshot() State {
	s := co.base.Snapshot()
	s.Stream = co.r.State()
	return s
}

// Restore loads a snapshot with its neighbour stream. A zero stream is
// refused: it is no generator state, and would spill to one neighbour
// forever.
func (co *Cooperative) Restore(s State) error {
	if s.Stream == [4]uint64{} {
		return errors.New("llc: coop state has no neighbour stream")
	}
	if err := co.base.Restore(s); err != nil {
		return err
	}
	co.r.Restore(s.Stream)
	return nil
}
