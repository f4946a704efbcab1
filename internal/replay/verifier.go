package replay

import (
	"bytes"
	"encoding/json"
	"fmt"

	"nucasim/internal/core"
)

// Verifier is the self-verify half of the replay subsystem: an io.Writer
// that sits behind the telemetry tracer (alone or in an io.MultiWriter
// tee), parses the JSONL event stream line by line, folds each event
// into a Machine, and — every time a repartition decision goes by —
// cross-checks the reconstruction against the live cache: every private
// stack, the shared stack's tags and owners, and the per-core limits of
// every set must match exactly.
//
// The comparison is synchronous: the simulator flushes the tracer inside
// the repartition path (sim wires Adaptive.OnRepartition to Flush), so
// by the time Write sees the decision line the live cache is exactly the
// state the trace prefix describes. A mismatch is recorded, not
// panicked: the first divergence is kept in Err and verification stops,
// while writes keep succeeding so the simulation (and the trace file, if
// teed) finish normally.
type Verifier struct {
	m       *Machine
	live    *core.Adaptive
	partial []byte
	epochs  uint64
	err     error
	scratch core.SetDump // reused across per-epoch set sweeps
}

// NewVerifier builds a verifier reconstructing alongside the given live
// organization, starting from its current contents and limits (Reset).
// Attach it before the first event the reconstruction must see: on a
// freshly built organization that is an empty cache.
func NewVerifier(a *core.Adaptive) *Verifier {
	v := &Verifier{live: a}
	v.Reset()
	return v
}

// Reset restarts the reconstruction from the live organization's
// current contents and limits, and clears the epoch count, the first
// error and any partial trace line. A run resumed from a checkpoint
// calls it once the cache is restored: its trace starts there.
func (v *Verifier) Reset() {
	a := v.live
	v.m = NewMachine(a.NumCores(), a.NumSets(), a.MaxBlocks())
	d := &v.scratch
	for idx := range v.m.sets {
		a.DumpSetInto(idx, d)
		s := &v.m.sets[idx]
		for c, tags := range d.Priv {
			for _, tag := range tags {
				s.priv[c] = append(s.priv[c], block{tag: tag, owner: c})
			}
		}
		for i, tag := range d.SharedTags {
			s.shared = append(s.shared, block{tag: tag, owner: d.SharedOwners[i]})
		}
	}
	v.partial = v.partial[:0]
	v.epochs, v.err = 0, nil
}

// Machine exposes the reconstruction (for inspection after a run).
func (v *Verifier) Machine() *Machine { return v.m }

// EpochsVerified returns how many repartition epochs were cross-checked
// successfully.
func (v *Verifier) EpochsVerified() uint64 { return v.epochs }

// Err returns the first replay or cross-check failure (nil = clean).
func (v *Verifier) Err() error { return v.err }

// Write implements io.Writer. It never reports an error to the tracer —
// verification failures are the verifier's to report via Err, and must
// not silence the tracer or abort the run.
func (v *Verifier) Write(p []byte) (int, error) {
	v.partial = append(v.partial, p...)
	for {
		i := bytes.IndexByte(v.partial, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := v.partial[:i]
		v.partial = v.partial[i+1:]
		if v.err != nil {
			continue // first failure wins; drain the rest
		}
		v.consume(line)
	}
}

func (v *Verifier) consume(line []byte) {
	line = bytes.TrimSpace(line)
	if len(line) == 0 {
		return
	}
	var ev Event
	if err := json.Unmarshal(line, &ev); err != nil {
		v.err = fmt.Errorf("replay verify: bad trace line: %w", err)
		return
	}
	if err := v.m.Apply(ev); err != nil {
		v.err = err
		return
	}
	if ev.IsDecision() {
		if err := v.checkLive(); err != nil {
			v.err = fmt.Errorf("replay verify at eval %d (cycle %d): %w", ev.Eval, ev.Cycle, err)
			return
		}
		v.epochs++
	}
}

// checkLive compares the whole reconstruction against the live cache.
func (v *Verifier) checkLive() error {
	if got, want := v.m.limits, v.live.MaxBlocks(); !equalInts(got, want) {
		return fmt.Errorf("limits: replayed %v, live %v", got, want)
	}
	for idx := range v.m.sets {
		if err := v.checkSet(idx); err != nil {
			return err
		}
	}
	return nil
}

func (v *Verifier) checkSet(idx int) error {
	v.live.DumpSetInto(idx, &v.scratch)
	d := &v.scratch
	s := &v.m.sets[idx]
	for c := range s.priv {
		if len(s.priv[c]) != len(d.Priv[c]) {
			return fmt.Errorf("set %d core %d: replayed %d private blocks, live %d",
				idx, c, len(s.priv[c]), len(d.Priv[c]))
		}
		for i, b := range s.priv[c] {
			if b.tag != d.Priv[c][i] {
				return fmt.Errorf("set %d core %d private[%d]: replayed tag %#x, live %#x",
					idx, c, i, b.tag, d.Priv[c][i])
			}
		}
	}
	if len(s.shared) != len(d.SharedTags) {
		return fmt.Errorf("set %d: replayed %d shared blocks, live %d",
			idx, len(s.shared), len(d.SharedTags))
	}
	for i, b := range s.shared {
		if b.tag != d.SharedTags[i] || b.owner != d.SharedOwners[i] {
			return fmt.Errorf("set %d shared[%d]: replayed tag %#x owner %d, live tag %#x owner %d",
				idx, i, b.tag, b.owner, d.SharedTags[i], d.SharedOwners[i])
		}
	}
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
