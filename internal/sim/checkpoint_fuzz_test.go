package sim

import (
	"context"
	"testing"
)

// FuzzRestoreCheckpoint throws arbitrary bytes at the restore path: the
// bytes nucasim -resume and a restarted job server read back from disk,
// which a crash or bit-rot may have mangled. Every input
// DecodeCheckpoint accepts is restored, with no measuring, onto one
// machine built once from the seed configuration. Restore must refuse
// it or restore it; it must never panic. A panic means a component's
// Restore is missing a check.
func FuzzRestoreCheckpoint(f *testing.F) {
	ctx := context.Background()
	cfg := ckConfig()
	cfg.WarmupInstructions, cfg.WarmupCycles, cfg.MeasureCycles = 20_000, 2_000, 4_000
	mix := mixOf(f, "ammp", "gzip")

	warm, err := WarmupCheckpoint(ctx, cfg, mix)
	if err != nil {
		f.Fatal(err)
	}
	for _, ck := range []*Checkpoint{warm, captureAt(f, cfg, mix, 2_000)} {
		data, err := ck.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	m := NewMachine(cfg, mix)
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		_ = m.Restore(ck, nil)
	})
}
