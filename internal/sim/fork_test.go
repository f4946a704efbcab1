package sim

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"nucasim/internal/telemetry"
	"nucasim/internal/workload"
)

// normalizeResult strips the only field that legitimately differs
// between a forked and a cold run: wall-clock throughput. Everything else — limits, counters,
// per-core stats, the full epoch time series — must be deep-equal.
func normalizeResult(r Result) Result {
	r.Throughput = telemetry.Throughput{}
	return r
}

// TestWarmupForkBitIdentical is the fork-equivalence acceptance test:
// one warmup checkpoint, encoded once and decoded into a private copy
// per point, must seed measurement windows whose results are identical
// to cold end-to-end runs of the same configurations, under every
// scheme (each in its schemeShape). This is the invariant that lets a
// sweep run warmup once per warmup-hash group.
func TestWarmupForkBitIdentical(t *testing.T) {
	for _, s := range Schemes() {
		t.Run(string(s), func(t *testing.T) {
			cfg, mix := schemeShape(t, s)
			testWarmupFork(t, cfg, mix)
		})
	}
}

func testWarmupFork(t *testing.T, cfg Config, mix []workload.AppParams) {
	windows := []uint64{20_000, 40_000, 60_000}

	ck, err := WarmupCheckpoint(context.Background(), cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Measured != 0 {
		t.Fatalf("warmup checkpoint holds %d measured cycles, want 0", ck.Measured)
	}
	if ck.WarmupHash == "" {
		t.Fatal("warmup checkpoint carries no warmup hash")
	}
	// Encode once, decode per point: the sweep scheduler's sharing shape.
	data, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}

	for _, mc := range windows {
		cold := cfg
		cold.MeasureCycles = mc
		ref, err := RunContext(context.Background(), cold, mix)
		if err != nil {
			t.Fatal(err)
		}

		fork, err := DecodeCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		fork.Cfg.MeasureCycles = mc
		got, err := ResumeFromCheckpoint(context.Background(), fork, nil)
		if err != nil {
			t.Fatal(err)
		}

		if !reflect.DeepEqual(normalizeResult(got), normalizeResult(ref)) {
			t.Errorf("measure_cycles=%d: forked result diverged from cold run\nforked %+v\ncold   %+v",
				mc, normalizeResult(got), normalizeResult(ref))
		}
	}
}

// TestWarmupHashGrouping pins the grouping semantics: MeasureCycles is
// the only canonical field excluded from the warmup hash, so points
// differing only in their measurement window share a group, and any
// warmup-relevant change — seed, warmup lengths, geometry, scheme
// knobs, the mix itself — splits it.
func TestWarmupHashGrouping(t *testing.T) {
	mix := mixOf(t, "ammp", "gzip")
	base, err := WarmupHash(ckConfig(), mix)
	if err != nil {
		t.Fatal(err)
	}

	same := ckConfig()
	same.MeasureCycles = 7 * ckConfig().MeasureCycles
	if h, err := WarmupHash(same, mix); err != nil || h != base {
		t.Errorf("MeasureCycles change split the group: %q vs %q (err %v)", h, base, err)
	}

	// Observability knobs are not canonical at all, so they cannot split
	// a group either.
	obs := ckConfig()
	obs.Telemetry = &telemetry.Config{Run: "other-label", EpochCapacity: 17}
	obs.CheckInvariants = false
	if h, err := WarmupHash(obs, mix); err != nil || h != base {
		t.Errorf("observability change split the group: %q vs %q (err %v)", h, base, err)
	}

	splits := []struct {
		name string
		mut  func(*Config)
	}{
		{"seed", func(c *Config) { c.Seed++ }},
		{"warmup instructions", func(c *Config) { c.WarmupInstructions += warmSegment }},
		{"warmup cycles", func(c *Config) { c.WarmupCycles += measureChunk }},
		{"repartition period", func(c *Config) { c.RepartitionPeriod *= 2 }},
		{"capacity", func(c *Config) { c.L3BytesPerCore = 512 * 1024 }},
		{"adaptation", func(c *Config) { c.DisableAdaptation = true }},
	}
	for _, tc := range splits {
		cfg := ckConfig()
		tc.mut(&cfg)
		h, err := WarmupHash(cfg, mix)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if h == base {
			t.Errorf("%s change did not split the warmup group", tc.name)
		}
	}

	if h, err := WarmupHash(ckConfig(), mixOf(t, "gzip", "ammp")); err != nil || h == base {
		t.Errorf("mix change did not split the warmup group (err %v)", err)
	}

	// A warmup hash must never collide with the spec hash of the same
	// configuration: they address different things.
	if sh, err := SpecHash(ckConfig(), mix); err != nil || sh == base {
		t.Errorf("warmup hash equals spec hash (err %v)", err)
	}
}

// TestResumeFromCheckpointRejectsWarmupMismatch pins the fork safety
// check: a checkpoint cannot be continued under a configuration whose
// warmup-relevant fields differ from the ones that produced the state,
// nor without a warmup hash to tell. A checkpoint whose measured cycles
// exceed its own cycle or its window is refused too.
func TestResumeFromCheckpointRejectsWarmupMismatch(t *testing.T) {
	mix := mixOf(t, "ammp", "gzip")
	ck, err := WarmupCheckpoint(context.Background(), ckConfig(), mix)
	if err != nil {
		t.Fatal(err)
	}

	data, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		want []string
		edit func(ck *Checkpoint)
		// invalid rows fail Checkpoint.validate, so their bytes do not
		// decode either.
		invalid bool
	}{
		{"seed change", []string{"warmup hash"}, func(ck *Checkpoint) { ck.Cfg.Seed++ }, false},
		{"blank stamp", []string{"WarmupHash"}, func(ck *Checkpoint) {
			ck.WarmupHash = ""
			ck.Cfg.Seed++
		}, true},
		{"over-measured", []string{"measured cycles"}, func(ck *Checkpoint) { ck.Measured = ck.Cfg.MeasureCycles + 1 }, true},
		{"measured past now", []string{"Measured", "Now"}, func(ck *Checkpoint) { ck.Measured = ck.Now + 1 }, true},
		{"measured past window", []string{"measured cycles"}, func(ck *Checkpoint) {
			ck.Cfg.MeasureCycles = ck.Now / 2
			ck.Measured = ck.Now/2 + 1
		}, false},
	} {
		fork, err := DecodeCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		tc.edit(fork)
		_, err = ResumeFromCheckpoint(context.Background(), fork, nil)
		if tc.invalid {
			edited, encErr := fork.Encode()
			if encErr != nil {
				t.Fatal(encErr)
			}
			if _, decErr := DecodeCheckpoint(edited); decErr == nil || err == nil || decErr.Error() != err.Error() {
				t.Errorf("%s: decoding returned %v, want the resume's error %v", tc.name, decErr, err)
			}
		}
		for _, w := range tc.want {
			if err == nil || !strings.Contains(err.Error(), w) {
				t.Errorf("%s: resume returned %v, want an error containing %q", tc.name, err, w)
			}
		}
	}
}

// TestWarmupCheckpointRejectsShortMix pins that a mix with fewer apps
// than cores is refused up front, not built into a machine.
func TestWarmupCheckpointRejectsShortMix(t *testing.T) {
	mix := mixOf(t, "ammp", "gzip")
	if _, err := WarmupCheckpoint(context.Background(), ckConfig(), mix[:1]); err == nil ||
		!strings.Contains(err.Error(), "1 apps for 2 cores") {
		t.Fatalf("short mix: %v, want a refusal naming 1 app for 2 cores", err)
	}
}

// TestCheckpointCloneIsolation pins the concurrency contract behind
// forking: each fork decodes its own copy of the encoded warmup
// checkpoint, and mutating one copy (or the machine restored from it)
// must reach neither the original nor a sibling fork.
func TestCheckpointCloneIsolation(t *testing.T) {
	mix := mixOf(t, "ammp", "gzip")
	ck, err := WarmupCheckpoint(context.Background(), ckConfig(), mix)
	if err != nil {
		t.Fatal(err)
	}
	data, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	a, errA := DecodeCheckpoint(data)
	b, errB := DecodeCheckpoint(data)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	a.Cfg.MeasureCycles = 1
	a.BeforeInstr[0]++
	a.Mix[0].Name = "mutated"
	for _, other := range []*Checkpoint{ck, b} {
		if other.Cfg.MeasureCycles == 1 || other.Mix[0].Name == "mutated" {
			t.Fatal("a decoded fork shares memory with another copy")
		}
		if a.BeforeInstr[0] != other.BeforeInstr[0]+1 {
			t.Fatal("a decoded fork's baseline is not independent")
		}
	}
}

// TestResumeLeavesCheckpointAlone pins the contract sweep forks rest on:
// ResumeFromCheckpoint never modifies its checkpoint, so one *Checkpoint
// resumed twice gives the cold result both times and still equals a copy
// decoded from its bytes before either resume.
func TestResumeLeavesCheckpointAlone(t *testing.T) {
	mix := mixOf(t, "ammp", "gzip")
	warm, err := WarmupCheckpoint(context.Background(), ckConfig(), mix)
	if err != nil {
		t.Fatal(err)
	}
	data, err := warm.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ck, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunContext(context.Background(), ckConfig(), mix)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := ResumeFromCheckpoint(context.Background(), ck, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalizeResult(got), normalizeResult(ref)) {
			t.Fatalf("resume %d of one checkpoint diverged from the cold run", i+1)
		}
	}
	pristine, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, pristine) {
		t.Fatal("resuming modified its checkpoint")
	}
}
