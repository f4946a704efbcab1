package sim

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nucasim/internal/telemetry"
)

// ckConfig is a small adaptive run with telemetry and invariant checks,
// sized so the measurement window crosses several repartition epochs.
func ckConfig() Config {
	return Config{
		Scheme:             SchemeAdaptive,
		Cores:              2,
		Seed:               7,
		WarmupInstructions: 60_000,
		WarmupCycles:       10_000,
		MeasureCycles:      60_000,
		RepartitionPeriod:  400,
		Telemetry:          &telemetry.Config{Run: "ck"},
		CheckInvariants:    true,
	}
}

// TestCheckpointResumeBitIdentical is the crash-safety acceptance test: a
// run interrupted mid-measurement and resumed from its checkpoint must
// produce the same partition limits, counters, per-core statistics and
// byte-identical epoch CSV as the same-seed run that was never
// interrupted.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	mix := mixOf(t, "ammp", "gzip")

	ref, err := RunContext(context.Background(), ckConfig(), mix)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := ckConfig()
	cfg.CheckpointPath = path
	cfg.CheckpointEvery = 10_000
	cfg.StopAfter = 25_000
	if _, err := RunContext(context.Background(), cfg, mix); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}

	ck, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ResumeFromCheckpoint(context.Background(), ck, nil)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(got.PartitionLimits, ref.PartitionLimits) {
		t.Errorf("limits: resumed %v, uninterrupted %v", got.PartitionLimits, ref.PartitionLimits)
	}
	if got.Repartitions != ref.Repartitions || got.Evaluations != ref.Evaluations {
		t.Errorf("repartitions/evaluations: resumed %d/%d, uninterrupted %d/%d",
			got.Repartitions, got.Evaluations, ref.Repartitions, ref.Evaluations)
	}
	if !reflect.DeepEqual(got.PerCoreIPC, ref.PerCoreIPC) {
		t.Errorf("IPC: resumed %v, uninterrupted %v", got.PerCoreIPC, ref.PerCoreIPC)
	}
	if !reflect.DeepEqual(got.CoreStats, ref.CoreStats) {
		t.Errorf("core stats diverged:\nresumed       %+v\nuninterrupted %+v", got.CoreStats, ref.CoreStats)
	}
	if got.LLCTotal != ref.LLCTotal {
		t.Errorf("LLC totals diverged:\nresumed       %+v\nuninterrupted %+v", got.LLCTotal, ref.LLCTotal)
	}
	if got.Memory != ref.Memory {
		t.Errorf("memory stats diverged:\nresumed       %+v\nuninterrupted %+v", got.Memory, ref.Memory)
	}
	if !reflect.DeepEqual(got.Counters, ref.Counters) {
		t.Errorf("counters diverged:\nresumed       %v\nuninterrupted %v", got.Counters, ref.Counters)
	}

	var refCSV, gotCSV bytes.Buffer
	if err := telemetry.WriteEpochCSV(&refCSV, ref.Epochs); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteEpochCSV(&gotCSV, got.Epochs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refCSV.Bytes(), gotCSV.Bytes()) {
		t.Errorf("epoch CSV diverged (%d vs %d bytes, %d vs %d epochs)",
			gotCSV.Len(), refCSV.Len(), len(got.Epochs), len(ref.Epochs))
	}
}

// TestRunContextCancelled pins cancellation behavior: an already-
// cancelled context interrupts the run with ErrInterrupted before any
// measurement happens.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, ckConfig(), mixOf(t, "ammp", "gzip"))
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("cancelled run returned %v, want ErrInterrupted", err)
	}
}

// TestReadCheckpointRejectsGarbage pins the failure mode for corrupt
// checkpoint files: a clear error, never a zero-state machine.
func TestReadCheckpointRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(path, []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(path); err == nil || !strings.Contains(err.Error(), "corrupt checkpoint") {
		t.Fatalf("err = %v, want a corrupt-checkpoint error", err)
	}
	if _, err := ReadCheckpoint(filepath.Join(t.TempDir(), "missing.ckpt")); err == nil {
		t.Fatal("missing checkpoint opened without error")
	}
}

// TestConfigValidate pins the descriptive-error contract for the
// configurations NewMachine would otherwise panic on.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"unknown scheme", func(c *Config) { c.Scheme = "l4-victim" }, "unknown scheme"},
		{"adaptive needs 2 cores", func(c *Config) { c.Scheme = SchemeAdaptive; c.Cores = 1 }, "the adaptive scheme needs at least 2 cores, got 1"},
		{"coop needs 2 cores", func(c *Config) { c.Scheme = SchemeCoop; c.Cores = 1 }, "the coop scheme needs at least 2 cores, got 1"},
		{"bad cache size", func(c *Config) { c.L3BytesPerCore = 100_000 }, "not divisible"},
		{"non-pow2 sets", func(c *Config) { c.L3BytesPerCore = 3 * 256 * 1024 }, "power of two"},
		{"negative period", func(c *Config) { c.RepartitionPeriod = -1 }, "RepartitionPeriod"},
		{"checkpoint non-adaptive", func(c *Config) { c.Scheme = SchemePrivate; c.CheckpointPath = "x" }, "only the adaptive scheme"},
		{"checkpoint with replay-verify", func(c *Config) {
			c.Scheme = SchemeAdaptive
			c.CheckpointPath = "x"
			c.ReplayVerify = true
		}, "incompatible with ReplayVerify"},
		{"cadence without path", func(c *Config) { c.CheckpointEvery = 5 }, "without a CheckpointPath"},
		{"stop beyond window", func(c *Config) { c.MeasureCycles = 10; c.StopAfter = 11 }, "exceeds MeasureCycles"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{}
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	if err := ckConfig().Validate(); err != nil {
		t.Fatalf("checkpoint test config rejected: %v", err)
	}
}
