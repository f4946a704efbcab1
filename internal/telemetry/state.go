package telemetry

import "fmt"

// RingState is the serializable content of an epoch Ring: the held
// samples oldest-first plus the eviction count.
type RingState struct {
	Samples []EpochSample
	Dropped uint64
}

// Snapshot captures the ring's samples and drop count.
func (r *Ring) Snapshot() RingState {
	if r == nil {
		return RingState{}
	}
	return RingState{Samples: r.Samples(), Dropped: r.dropped}
}

// Restore loads a snapshot into the ring, replacing its contents. The
// ring's capacity is fixed at construction, so the snapshot must fit.
func (r *Ring) Restore(s RingState) error {
	if r == nil {
		if len(s.Samples) == 0 {
			return nil
		}
		return fmt.Errorf("telemetry: cannot restore %d samples into a nil ring", len(s.Samples))
	}
	if len(s.Samples) > r.max {
		return fmt.Errorf("telemetry: state holds %d samples, ring capacity %d", len(s.Samples), r.max)
	}
	r.reset(s.Samples, s.Dropped)
	return nil
}

// RegistryState is the serializable content of a Registry.
type RegistryState struct {
	Counters   map[string]uint64
	Gauges     map[string]int64
	Histograms map[string]HistogramState
}

// Snapshot captures every registered instrument's value.
func (r *Registry) Snapshot() RegistryState {
	s := RegistryState{Counters: r.Counters(), Gauges: r.Gauges()}
	if r != nil && len(r.histograms) > 0 {
		s.Histograms = make(map[string]HistogramState, len(r.histograms))
		for name, h := range r.histograms {
			s.Histograms[name] = h.State()
		}
	}
	return s
}

// Restore sets each named instrument to its saved value, registering
// any that do not exist yet. Instruments absent from the snapshot keep
// their current values. Histograms restore into the pointers already
// handed out, so observers attached before the restore keep observing
// the right distributions afterwards.
func (r *Registry) Restore(s RegistryState) error {
	if r == nil {
		return nil
	}
	for name, v := range s.Counters {
		r.Counter(name).v = v
	}
	for name, v := range s.Gauges {
		r.Gauge(name).v = v
	}
	for name, hs := range s.Histograms {
		if err := r.Histogram(name).RestoreState(hs); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// TracerState carries the per-kind sampling strides so a resumed run's
// tracer skips and emits the same events a continuous run would. The
// underlying writer is not part of the state; the resumed run supplies
// its own sink.
type TracerState struct {
	Seen    []uint64
	Written []uint64
}

// Snapshot captures the tracer's stride counters.
func (t *Tracer) Snapshot() TracerState {
	if t == nil {
		return TracerState{}
	}
	return TracerState{
		Seen:    append([]uint64(nil), t.seen[:]...),
		Written: append([]uint64(nil), t.written[:]...),
	}
}

// Restore loads stride counters saved by Snapshot and recomputes each
// kind's next-emission point, so the resumed tracer continues the exact
// sampling cadence of the interrupted run.
func (t *Tracer) Restore(s TracerState) error {
	if t == nil {
		return nil
	}
	if len(s.Seen) != int(numKinds) || len(s.Written) != int(numKinds) {
		return fmt.Errorf("telemetry: tracer state has %d/%d kinds, want %d", len(s.Seen), len(s.Written), int(numKinds))
	}
	copy(t.seen[:], s.Seen)
	copy(t.written[:], s.Written)
	for k := range t.seen {
		if seen, every := t.seen[k], t.every[k]; seen == 0 {
			t.next[k] = 1
		} else {
			t.next[k] = ((seen-1)/every+1)*every + 1
		}
	}
	return nil
}

// State bundles a Telemetry instance's restorable pieces. The trace
// writer itself cannot be checkpointed (it is an open file owned by the
// caller); a resumed run re-emits into a fresh sink with the stride
// counters continued.
type State struct {
	Ring     RingState
	Registry RegistryState
	Tracer   TracerState
}

// Snapshot captures the telemetry instance's mutable state.
func (t *Telemetry) Snapshot() State {
	if t == nil {
		return State{}
	}
	return State{
		Ring:     t.Epochs.Snapshot(),
		Registry: t.Registry.Snapshot(),
		Tracer:   t.Trace.Snapshot(),
	}
}

// Restore loads a snapshot taken from a compatibly configured instance.
func (t *Telemetry) Restore(s State) error {
	if t == nil {
		return nil
	}
	if err := t.Epochs.Restore(s.Ring); err != nil {
		return err
	}
	if err := t.Registry.Restore(s.Registry); err != nil {
		return err
	}
	if t.Trace != nil && len(s.Tracer.Seen) > 0 {
		if err := t.Trace.Restore(s.Tracer); err != nil {
			return err
		}
	}
	return nil
}
