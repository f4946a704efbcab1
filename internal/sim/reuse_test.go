package sim

import (
	"context"
	"errors"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nucasim/internal/telemetry"
)

// reuseWindow is one measurement window forked from a shared warmup,
// with the per-run knobs a fork may change.
type reuseWindow struct {
	measure    uint64
	mid        bool // resume the checkpoint taken midMeasured cycles into the window
	telemetry  bool
	invariants bool
	verify     bool
}

// midMeasured is where the mid-window checkpoint of the oracle's run
// was taken.
const midMeasured = 25_000

// coldConfig is the cold run a fork of ckConfig's warmup must reproduce.
func (w reuseWindow) coldConfig() Config {
	cfg := ckConfig()
	cfg.MeasureCycles = w.measure
	cfg.CheckInvariants = w.invariants
	cfg.ReplayVerify = w.verify
	if !w.telemetry {
		cfg.Telemetry = nil
	}
	return cfg
}

// fork is a struct copy of the window's checkpoint, the warmup's or
// the mid-window one, carrying the window's knobs; neither checkpoint
// is ever written.
func (w reuseWindow) fork(warm, mid *Checkpoint) *Checkpoint {
	f := *warm
	if w.mid {
		f = *mid
		f.Cfg.CheckpointPath, f.Cfg.CheckpointEvery = "", 0
	}
	f.Cfg.MeasureCycles = w.measure
	f.Cfg.CheckInvariants = w.invariants
	f.Cfg.ReplayVerify = w.verify
	f.HasTelemetry = w.telemetry
	return &f
}

// TestResumeReusedMachineMatchesFresh is the reuse oracle: one warmed
// machine resumes window after window, in shuffled order (so a long
// window runs before a short one), from the warmup checkpoint and from
// one taken part way into a window, with telemetry on and off and
// CheckInvariants and ReplayVerify mixed. Each Result, Throughput
// aside, must equal both the fresh-machine ResumeFromCheckpoint result
// and the cold RunContext result of the same configuration. Whatever a
// window leaves in the machine must therefore be overwritten by the
// next window's restore.
//
// Under ReplayVerify a resumed run verifies only the epochs after the
// checkpoint, since its reconstruction starts from the restored cache;
// the cold run verifies every epoch from the empty cache on. The test
// checks that the two counts differ by exactly the checkpoint's
// evaluations, and both runs verify clean.
func TestResumeReusedMachineMatchesFresh(t *testing.T) {
	ctx := context.Background()
	mix := mixOf(t, "ammp", "gzip")
	m, ck, err := WarmupMachine(ctx, ckConfig(), mix)
	if err != nil {
		t.Fatal(err)
	}
	// A checkpoint midMeasured cycles into a window has the same warmup
	// hash, so the warmed machine resumes it too.
	interrupted := ckConfig()
	interrupted.CheckpointPath = filepath.Join(t.TempDir(), "mid.ckpt")
	interrupted.StopAfter = midMeasured
	if _, err := RunContext(ctx, interrupted, mix); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	mid, err := ReadCheckpoint(interrupted.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	windows := []reuseWindow{
		{measure: 60_000, telemetry: true, invariants: true},
		{measure: 8_000},
		{measure: 40_000, telemetry: true, verify: true},
		{measure: 20_000, telemetry: true, invariants: true},
		{measure: 60_000, invariants: true},
		{measure: 12_000, telemetry: true, invariants: true, verify: true},
		{measure: 60_000, mid: true, telemetry: true, invariants: true},
		{measure: 30_000, mid: true},
		{measure: 45_000, mid: true, telemetry: true, verify: true},
	}
	rand.New(rand.NewPCG(24, 1)).Shuffle(len(windows), func(i, j int) {
		windows[i], windows[j] = windows[j], windows[i]
	})
	longThenShort := false
	for i := 1; i < len(windows); i++ {
		longThenShort = longThenShort || windows[i].measure < windows[i-1].measure
	}
	if !longThenShort {
		t.Fatalf("window order %+v never runs a short window after a long one", windows)
	}

	for i, w := range windows {
		got, err := m.Resume(ctx, w.fork(ck, mid), nil)
		if err != nil {
			t.Fatalf("window %d %+v: reused machine: %v", i, w, err)
		}
		fresh, err := ResumeFromCheckpoint(ctx, w.fork(ck, mid), nil)
		if err != nil {
			t.Fatalf("window %d %+v: fresh machine: %v", i, w, err)
		}
		if !reflect.DeepEqual(normalizeResult(got), normalizeResult(fresh)) {
			t.Fatalf("window %d %+v: reused machine diverged from a fresh one\nreused %+v\nfresh  %+v",
				i, w, normalizeResult(got), normalizeResult(fresh))
		}
		cold, err := RunContext(ctx, w.coldConfig(), mix)
		if err != nil {
			t.Fatalf("window %d %+v: cold run: %v", i, w, err)
		}
		if w.verify {
			if got.ReplayVerifyError != "" || cold.ReplayVerifyError != "" {
				t.Fatalf("window %d %+v: replay verify failed: resumed %q, cold %q",
					i, w, got.ReplayVerifyError, cold.ReplayVerifyError)
			}
			before := ck.LLC.Evaluations
			if w.mid {
				before = mid.LLC.Evaluations
			}
			if got.ReplayEpochsVerified == 0 || got.ReplayEpochsVerified+before != cold.ReplayEpochsVerified {
				t.Fatalf("window %d %+v: resumed run verified %d epochs after the checkpoint's %d, cold run %d",
					i, w, got.ReplayEpochsVerified, before, cold.ReplayEpochsVerified)
			}
			got.ReplayEpochsVerified = cold.ReplayEpochsVerified
		}
		if !reflect.DeepEqual(normalizeResult(got), normalizeResult(cold)) {
			t.Fatalf("window %d %+v: reused machine diverged from the cold run\nreused %+v\ncold   %+v",
				i, w, normalizeResult(got), normalizeResult(cold))
		}
	}
}

// TestResumeRejectsOtherBuild: a machine resumes only checkpoints of its
// own build, whether it ran the warmup or was only built (NewMachine).
// Another configuration's checkpoint is refused before anything is
// restored, with both warmup hashes in the error; a checkpoint whose
// restore fails part way leaves the machine to the next Resume, which
// restores all of it.
func TestResumeRejectsOtherBuild(t *testing.T) {
	ctx := context.Background()
	mix := mixOf(t, "ammp", "gzip")
	m, ck, err := WarmupMachine(ctx, ckConfig(), mix)
	if err != nil {
		t.Fatal(err)
	}
	other := ckConfig()
	other.Seed++
	for name, c := range map[string]struct {
		cfg Config
		mix []string
	}{
		"seed": {other, []string{"ammp", "gzip"}},
		"mix":  {ckConfig(), []string{"gzip", "ammp"}},
	} {
		foreign, err := WarmupCheckpoint(ctx, c.cfg, mixOf(t, c.mix...))
		if err != nil {
			t.Fatal(err)
		}
		for build, mach := range map[string]*Machine{"warmed": m, "built": NewMachine(ckConfig(), mix)} {
			_, err = mach.Resume(ctx, foreign, nil)
			if err == nil {
				t.Fatalf("%s machine, other %s: another build's checkpoint was resumed", build, name)
			}
			for _, h := range []string{foreign.WarmupHash[:12], ck.WarmupHash[:12]} {
				if !strings.Contains(err.Error(), h) {
					t.Errorf("%s machine, other %s: error %q does not name warmup hash %s", build, name, err, h)
				}
			}
		}
	}

	corrupt := *ck
	corrupt.LLC.MaxBlocks = corrupt.LLC.MaxBlocks[:1]
	if _, err := m.Resume(ctx, &corrupt, nil); err == nil || !strings.Contains(err.Error(), "MaxBlocks") {
		t.Fatalf("a checkpoint with a short MaxBlocks was resumed: %v", err)
	}
	got, err := m.Resume(ctx, ck, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ResumeFromCheckpoint(ctx, ck, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalizeResult(got), normalizeResult(want)) {
		t.Fatal("resume after a failed restore diverged from a fresh machine")
	}
	built, err := NewMachine(ckConfig(), mix).Resume(ctx, ck, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalizeResult(built), normalizeResult(want)) {
		t.Fatal("resume on a built machine diverged from ResumeFromCheckpoint")
	}
}

// TestResumeReusedMachineAttachesTelemetry: a warmup run without
// telemetry may have it attached per window. No cold run matches such a
// window, so each is held against a fresh machine, after windows that
// left the reused machine with telemetry baselines of their own.
func TestResumeReusedMachineAttachesTelemetry(t *testing.T) {
	ctx := context.Background()
	mix := mixOf(t, "ammp", "gzip")
	cfg := ckConfig()
	cfg.Telemetry = nil
	m, ck, err := WarmupMachine(ctx, cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	attach := func(c *telemetry.Config) bool {
		c.Run = "attached"
		return true
	}
	for i, mc := range []uint64{60_000, 20_000, 40_000} {
		fork := *ck
		fork.Cfg.MeasureCycles = mc
		got, err := m.Resume(ctx, &fork, attach)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ResumeFromCheckpoint(ctx, &fork, attach)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Epochs) == 0 {
			t.Fatalf("window %d: attached telemetry recorded no epochs", i)
		}
		if !reflect.DeepEqual(normalizeResult(got), normalizeResult(want)) {
			t.Fatalf("window %d (%d cycles): reused machine diverged from a fresh one\nreused %+v\nfresh  %+v",
				i, mc, normalizeResult(got), normalizeResult(want))
		}
	}
}
