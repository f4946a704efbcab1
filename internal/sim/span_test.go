package sim

import (
	"encoding/json"
	"reflect"
	"testing"

	"nucasim/internal/telemetry"
)

func spanConfig(rec *telemetry.SpanRecorder) Config {
	cfg := Config{
		Scheme: SchemeAdaptive, Seed: 11,
		WarmupInstructions: 400_000, WarmupCycles: 50_000,
		MeasureCycles: 200_000,
	}
	// Both arms carry a telemetry config (epoch recording changes Result
	// fields); only the Spans observer differs.
	cfg.Telemetry = &telemetry.Config{Spans: rec}
	return cfg
}

// TestRunEmitsPhaseSpans: a traced run records one span per phase
// boundary — the root, both warmup stages with their per-core/per-chunk
// children, the measurement loop with its chunks, and every repartition
// evaluation.
func TestRunEmitsPhaseSpans(t *testing.T) {
	rec := telemetry.NewSpanRecorder(telemetry.SpanConfig{})
	r := Run(spanConfig(rec), telemetryMix(t))
	if r.Evaluations == 0 {
		t.Fatal("run produced no evaluations; enlarge the window")
	}

	count := make(map[string]int)
	byID := make(map[telemetry.SpanID]telemetry.SpanRecord)
	for _, s := range rec.Records() {
		count[s.Name]++
		byID[s.ID] = s
	}
	if rec.Dropped() != 0 {
		t.Fatalf("flight recorder dropped %d spans on a short run", rec.Dropped())
	}
	for _, want := range []struct {
		name string
		n    int
	}{
		{"sim.run", 1},
		{"sim.warmup_functional", 1},
		{"sim.warmup_cycles", 1},
		{"sim.measure", 1},
		{"adaptive.repartition", int(r.Evaluations)},
	} {
		if count[want.name] != want.n {
			t.Errorf("%s: %d spans, want %d (all: %v)", want.name, count[want.name], want.n, count)
		}
	}
	if count["sim.warmup_segment"] == 0 || count["sim.warmup_chunk"] == 0 || count["sim.measure_chunk"] == 0 {
		t.Errorf("missing segment/chunk spans: %v", count)
	}
	// Each warmup phase span and the sum of its step spans carry the
	// phase's work count.
	cfg := spanConfig(nil)
	detail := make(map[string]uint64)
	for _, s := range byID {
		detail[s.Name] += s.Detail
	}
	for _, want := range []struct {
		phase, step string
		n           uint64
	}{
		{"sim.warmup_functional", "sim.warmup_segment", cfg.WarmupInstructions},
		{"sim.warmup_cycles", "sim.warmup_chunk", cfg.WarmupCycles},
	} {
		if detail[want.phase] != want.n || detail[want.step] != want.n {
			t.Errorf("%s detail %d, %s details sum to %d, want %d",
				want.phase, detail[want.phase], want.step, detail[want.step], want.n)
		}
	}

	// Structure: every non-root span's parent chain reaches sim.run.
	var rootID telemetry.SpanID
	for id, s := range byID {
		if s.Name == "sim.run" {
			rootID = id
		}
	}
	for _, s := range byID {
		if s.ID == rootID {
			continue
		}
		seen := 0
		for p := s.Parent; p != 0; {
			if p == rootID {
				break
			}
			ps, ok := byID[p]
			if !ok {
				t.Fatalf("span %s has unknown ancestor %d", s.Name, p)
			}
			p = ps.Parent
			if seen++; seen > 10 {
				t.Fatalf("span %s: ancestor chain too deep", s.Name)
			}
		}
	}
}

// TestSpansDoNotPerturbResults is the load-bearing invariant of the span
// subsystem: wall-clock observation must never leak into simulated
// state. Identical config modulo spans ⇒ identical Result, modulo the
// one field that is definitionally host-side (wall-clock throughput).
func TestSpansDoNotPerturbResults(t *testing.T) {
	plain := Run(spanConfig(nil), telemetryMix(t))
	rec := telemetry.NewSpanRecorder(telemetry.SpanConfig{})
	traced := Run(spanConfig(rec), telemetryMix(t))

	plain.Throughput.Wall = 0
	traced.Throughput.Wall = 0

	a, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(traced)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		if !reflect.DeepEqual(plain, traced) {
			t.Fatal("results differ between spans-off and spans-on runs")
		}
		t.Fatal("result JSON differs between spans-off and spans-on runs")
	}
}
