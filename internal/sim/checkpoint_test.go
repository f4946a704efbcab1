package sim

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nucasim/internal/cache"
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

// TestReadCheckpointNamesVersion pins the format-version contract: a
// version-1 checkpoint, which held one slice per set where version 2
// holds flat stacks, is refused with an error naming both versions —
// what nucasim -resume prints — not a gob type mismatch.
func TestReadCheckpointNamesVersion(t *testing.T) {
	type v1Block struct {
		Tag          uint64
		Owner, Home  int16
		Dirty, Valid bool
	}
	type v1Cache struct{ Sets [][]v1Block }
	v1 := struct {
		Version int
		Hier    struct{ Cores []struct{ L1D v1Cache } }
		LLC     struct {
			Sets []struct {
				Priv   [][]v1Block
				Shared []v1Block
			}
		}
	}{Version: 1}
	v1.Hier.Cores = make([]struct{ L1D v1Cache }, 1)
	v1.Hier.Cores[0].L1D.Sets = [][]v1Block{{{Tag: 7, Valid: true}}}
	v1.LLC.Sets = make([]struct {
		Priv   [][]v1Block
		Shared []v1Block
	}, 1)
	v1.LLC.Sets[0].Priv = [][]v1Block{{{Tag: 9, Owner: 1, Home: 1}}}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v1); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v1.ckpt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadCheckpoint(path)
	if err == nil || !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "version 2") ||
		strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("err = %v, want a version error naming versions 1 and 2", err)
	}
}

// TestCheckpointHasNoNestedSlices keeps every checkpointed structure in
// the flat cache.Stacks layout: no type reachable from Checkpoint may
// have a [][]T field, which gob decodes into one heap slice per inner
// slice.
func TestCheckpointHasNoNestedSlices(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if f := typ.Field(i); f.IsExported() {
					walk(f.Type, path+"."+f.Name)
				}
			}
		case reflect.Slice:
			if typ.Elem().Kind() == reflect.Slice {
				t.Errorf("%s is a nested slice %s", path, typ)
			}
			walk(typ.Elem(), path+"[]")
		case reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Pointer:
			walk(typ.Elem(), path)
		case reflect.Map:
			walk(typ.Key(), path+"{key}")
			walk(typ.Elem(), path+"{}")
		}
	}
	walk(reflect.TypeOf(Checkpoint{}), "Checkpoint")
}

// TestResumeRejectsShortState pins that every per-core and per-set slice
// of a checkpoint is checked against the machine before anything runs: a
// short one is refused with an error naming it, never resumed into an
// index-out-of-range panic or silently zeroed counters. So is a generator
// position outside its code region or window, or outside a data layer.
// So is a cache way that is not valid or repeats a tag of its set, and a
// TLB page listed twice: each would hold an entry no lookup finds.
func TestResumeRejectsShortState(t *testing.T) {
	ck, err := WarmupCheckpoint(context.Background(), ckConfig(), mixOf(t, "ammp", "gzip"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		want string
		cut  func(ck *Checkpoint)
	}{
		{"baseline", func(ck *Checkpoint) { ck.BeforeInstr = ck.BeforeInstr[:1] }},
		{"baseline", func(ck *Checkpoint) { ck.BeforeAccess = ck.BeforeAccess[:1] }},
		{"baseline", func(ck *Checkpoint) { ck.BeforeMiss = ck.BeforeMiss[:1] }},
		{"ShadowHits", func(ck *Checkpoint) { ck.LLC.ShadowHits = ck.LLC.ShadowHits[:1] }},
		{"LRUHits", func(ck *Checkpoint) { ck.LLC.LRUHits = ck.LLC.LRUHits[:1] }},
		{"SetStats", func(ck *Checkpoint) { ck.LLC.SetStats = ck.LLC.SetStats[:len(ck.LLC.SetStats)-1] }},
		{"EpochStats", func(ck *Checkpoint) { ck.LLC.EpochStats = ck.LLC.EpochStats[:1] }},
		{"stacks", func(ck *Checkpoint) { ck.LLC.Blocks.Lens = ck.LLC.Blocks.Lens[:len(ck.LLC.Blocks.Lens)-1] }},
		{"stacks", func(ck *Checkpoint) { ck.Hier.Cores[0].L2D.Sets.Lens = ck.Hier.Cores[0].L2D.Sets.Lens[1:] }},
		{"BTB", func(ck *Checkpoint) { ck.Cores[1].Pred.BTB.Items = ck.Cores[1].Pred.BTB.Items[1:] }},
		{"WindowStart", func(ck *Checkpoint) { ck.Cores[0].Gen.WindowStart = 1 << 40 }},
		{"PCIndex", func(ck *Checkpoint) { ck.Cores[1].Gen.PCIndex = 174763 }},
		{"PCIndex", func(ck *Checkpoint) {
			ck.Cores[0].Gen.WindowStart = 256
			ck.Cores[0].Gen.PCIndex = 0
		}},
		{"LayerPos", func(ck *Checkpoint) { ck.Cores[1].Gen.LayerPos[0] = 1 << 40 }},
		{"invalid block", func(ck *Checkpoint) { ck.Hier.Cores[0].L1D.Sets.Items[0].Valid = false }},
		{"holds tag", func(ck *Checkpoint) { repeatTag(t, &ck.Hier.Cores[1].L2D.Sets) }},
		{"core 0 D-TLB: tlb: state lists page", func(ck *Checkpoint) { p := ck.Hier.Cores[0].DTLB.Pages; p[1] = p[0] }},
	} {
		fork, err := DecodeCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		tc.cut(fork)
		fork.Cfg.MeasureCycles = measureChunk
		if _, err := ResumeFromCheckpoint(context.Background(), fork, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v", tc.want, err)
		}
	}
}

// repeatTag gives the second way of the first set holding two blocks the
// first way's tag.
func repeatTag(t *testing.T, s *cache.Stacks[cache.Block]) {
	off := 0
	for _, n := range s.Lens {
		if n >= 2 {
			s.Items[off+1].Tag = s.Items[off].Tag
			return
		}
		off += int(n)
	}
	t.Fatal("no set holds two blocks")
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
