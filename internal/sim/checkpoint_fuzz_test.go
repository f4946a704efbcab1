package sim

import (
	"context"
	"testing"
)

// FuzzRestoreCheckpoint throws arbitrary bytes at the restore path: the
// bytes nucasim -resume and a restarted job server read back from disk,
// which a crash or bit-rot may have mangled. Every input
// DecodeCheckpoint accepts is restored, with no measuring, onto the
// machine of its decoded scheme, one per scheme built once from that
// scheme's seed configuration (a single machine would refuse every
// other scheme's seed at the warmup-hash check). Restore must refuse it
// or restore it; it must never panic. A panic means a component's
// Restore is missing a check. The seeds, an adaptive warmup checkpoint
// and one mid-window checkpoint per scheme, each restore cleanly.
func FuzzRestoreCheckpoint(f *testing.F) {
	ctx := context.Background()
	machines := make(map[Scheme]*Machine)
	for _, s := range Schemes() {
		cfg, mix := schemeShape(f, s)
		cfg.WarmupInstructions, cfg.WarmupCycles, cfg.MeasureCycles = 20_000, 2_000, 4_000
		seeds := []*Checkpoint{captureAt(f, cfg, mix, 2_000)}
		if s == SchemeAdaptive {
			warm, err := WarmupCheckpoint(ctx, cfg, mix)
			if err != nil {
				f.Fatal(err)
			}
			seeds = append([]*Checkpoint{warm}, seeds...)
		}
		m := NewMachine(cfg, mix)
		for _, ck := range seeds {
			data, err := ck.Encode()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
			// A seed its machine refuses would leave the restore path
			// past the checks unexplored.
			if err := m.Restore(ck, nil); err != nil {
				f.Fatalf("%s seed: %v", s, err)
			}
		}
		machines[s] = m
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		if m := machines[ck.Cfg.withDefaults().Scheme]; m != nil {
			_ = m.Restore(ck, nil)
		}
	})
}
