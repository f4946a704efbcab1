package telemetry

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func sample(eval uint64) EpochSample {
	return EpochSample{
		Eval: eval, Cycle: eval * 1000,
		Limits:     []int{3, 3, 3, 3},
		ShadowHits: []uint64{1, 2, 3, 4},
		LRUHits:    []uint64{4, 3, 2, 1},
		Gainer:     3, Loser: 0, Gain: 4, Loss: 4,
		PrivateBlocks: 100, SharedBlocks: 28,
		EpochAccesses: []uint64{10, 10, 10, 20},
		EpochMisses:   []uint64{1, 2, 3, 4},
	}
}

// evals lists the Eval of each sample, in order.
func evals(ss []EpochSample) []uint64 {
	out := make([]uint64, len(ss))
	for i, s := range ss {
		out[i] = s.Eval
	}
	return out
}

// wantEvals checks that got holds exactly the evals lo..hi in order.
func wantEvals(t *testing.T, what string, got []EpochSample, lo, hi uint64) {
	t.Helper()
	var want []uint64
	for e := lo; e <= hi; e++ {
		want = append(want, e)
	}
	if e := evals(got); !slices.Equal(e, want) {
		if len(e) > 8 {
			e = append(e[:4:4], e[len(e)-4:]...) // head and tail only
		}
		t.Fatalf("%s: %d samples, evals %v, want %d..%d", what, len(got), e, lo, hi)
	}
}

func TestRingBounds(t *testing.T) {
	for _, capacity := range []int{1, 3, 4096} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			r := NewRing(capacity)
			c := uint64(capacity)

			// Fill: everything is held, nothing dropped.
			for i := uint64(1); i <= c; i++ {
				r.Append(sample(i))
			}
			if r.Len() != capacity || r.Cap() != capacity || r.Dropped() != 0 {
				t.Fatalf("full: len=%d cap=%d dropped=%d, want %d/%d/0", r.Len(), r.Cap(), r.Dropped(), capacity, capacity)
			}
			wantEvals(t, "full", r.Samples(), 1, c)

			// Wrap: 2*capacity+1 more appends evict the oldest, counted.
			last := 3*c + 1
			for i := c + 1; i <= last; i++ {
				r.Append(sample(i))
			}
			if r.Len() != capacity || r.Cap() != capacity {
				t.Fatalf("wrapped: len=%d cap=%d, want %d/%d", r.Len(), r.Cap(), capacity, capacity)
			}
			if want := last - c; r.Dropped() != want {
				t.Fatalf("dropped=%d, want %d", r.Dropped(), want)
			}
			first := last - c + 1
			wantEvals(t, "wrapped", r.Samples(), first, last)

			// Since across the wrap: evicted evals are gone, the held tail
			// comes back oldest-first from any cursor.
			wantEvals(t, "Since(0)", r.Since(0), first, last)
			wantEvals(t, "Since(first-1)", r.Since(first-1), first, last)
			wantEvals(t, "Since(last-1)", r.Since(last-1), last, last)
			if got := r.Since(last); got != nil {
				t.Fatalf("Since(last) = %v, want nil", evals(got))
			}

			// Snapshot → Restore into a fresh ring is lossless, and both
			// rings keep wrapping identically afterwards.
			snap := r.Snapshot()
			fresh := NewRing(capacity)
			if err := fresh.Restore(snap); err != nil {
				t.Fatal(err)
			}
			if fresh.Len() != r.Len() || fresh.Dropped() != r.Dropped() {
				t.Fatalf("restored len=%d dropped=%d, want %d/%d", fresh.Len(), fresh.Dropped(), r.Len(), r.Dropped())
			}
			wantEvals(t, "restored", fresh.Samples(), first, last)
			r.Append(sample(last + 1))
			fresh.Append(sample(last + 1))
			wantEvals(t, "restored+1", fresh.Samples(), first+1, last+1)
			if fresh.Dropped() != r.Dropped() {
				t.Fatalf("restored ring dropped %d after one more append, original %d", fresh.Dropped(), r.Dropped())
			}

			// A snapshot larger than the capacity does not fit.
			over := RingState{Samples: make([]EpochSample, capacity+1)}
			if err := NewRing(capacity).Restore(over); err == nil {
				t.Fatalf("restoring %d samples into capacity %d succeeded", capacity+1, capacity)
			}
		})
	}
}

// TestEpochSampleCloneSharesNothing: Clone copies every slice field of
// EpochSample, including any added later, so writing through the clone
// leaves the original alone.
func TestEpochSampleCloneSharesNothing(t *testing.T) {
	var s EpochSample
	v := reflect.ValueOf(&s).Elem()
	for i := range v.NumField() {
		if f := v.Field(i); f.Kind() == reflect.Slice {
			f.Set(reflect.MakeSlice(f.Type(), 2, 2))
		}
	}
	c := s.Clone()
	if !reflect.DeepEqual(c, s) {
		t.Fatalf("clone %+v differs from the sample %+v", c, s)
	}
	cv := reflect.ValueOf(c)
	for i := range v.NumField() {
		if f := v.Field(i); f.Kind() == reflect.Slice && f.Pointer() == cv.Field(i).Pointer() {
			t.Errorf("clone shares field %s with the sample", v.Type().Field(i).Name)
		}
	}
}

func TestRingNilSafe(t *testing.T) {
	var r *Ring
	r.Append(sample(1)) // must not panic
	if r.Len() != 0 || r.Dropped() != 0 || r.Samples() != nil || r.Cap() != 0 {
		t.Fatal("nil ring should report empty")
	}
}

func TestNilTelemetryNoOps(t *testing.T) {
	var tel *Telemetry
	if tel.Enabled() {
		t.Fatal("nil telemetry reports enabled")
	}
	tel.RecordEpoch(sample(1)) // must not panic

	var tr *Tracer
	if tr.ShouldEmit(KindSwap) {
		t.Fatal("nil tracer wants events")
	}
	tr.Decision(DecisionEvent{})
	tr.Block(KindEvict, BlockEvent{})
	if tr.Err() != nil || tr.Seen(KindEvict) != 0 || tr.Written(KindEvict) != 0 {
		t.Fatal("nil tracer should be inert")
	}
}

func TestRegistry(t *testing.T) {
	var r Registry
	c := r.Counter("llc.demotions")
	c.Inc()
	c.Add(2)
	if r.Counter("llc.demotions") != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("partition.shared")
	g.Set(5)
	g.Add(-2)
	if c.Value() != 3 || g.Value() != 3 {
		t.Fatalf("counter=%d gauge=%d, want 3/3", c.Value(), g.Value())
	}
	if got := r.Counters()["llc.demotions"]; got != 3 {
		t.Fatalf("snapshot counter = %d", got)
	}
	if got := r.Gauges()["partition.shared"]; got != 3 {
		t.Fatalf("snapshot gauge = %d", got)
	}
	if names := r.Names(); len(names) != 1 || names[0] != "llc.demotions" {
		t.Fatalf("names = %v", names)
	}

	var nilReg *Registry
	nilReg.Counter("x").Inc() // nil-safe chain
	nilReg.Gauge("y").Set(1)
	if nilReg.Counters() != nil || nilReg.Gauges() != nil {
		t.Fatal("nil registry should snapshot nil")
	}
}

func TestTracerSamplingAndJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, "run1", map[Kind]uint64{KindDemote: 4})
	for i := 0; i < 10; i++ {
		tr.Block(KindDemote, BlockEvent{
			Cycle: uint64(i), Core: 1, Owner: 2, Set: 7, Dirty: i%2 == 0,
		})
	}
	tr.Decision(DecisionEvent{Cycle: 99, Eval: 1, Gainer: 2, Loser: 0,
		Transferred: true, Limits: []int{2, 3, 4, 3}})
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	if tr.Seen(KindDemote) != 10 || tr.Written(KindDemote) != 3 {
		t.Fatalf("demotes seen=%d written=%d, want 10/3 (1-in-4)", tr.Seen(KindDemote), tr.Written(KindDemote))
	}
	if tr.Written(KindRepartition) != 1 {
		t.Fatalf("decision written=%d, want 1", tr.Written(KindRepartition))
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("trace has %d lines, want 4", len(lines))
	}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %q is not JSON: %v", line, err)
		}
		if m["run"] != "run1" {
			t.Fatalf("line %q missing run label", line)
		}
	}
	var last map[string]any
	json.Unmarshal([]byte(lines[3]), &last)
	if last["type"] != "repartition" || last["transferred"] != true {
		t.Fatalf("last line = %v, want the decision event", last)
	}
}

func TestTracerDecisionCopiesSlices(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, "", nil)
	limits := []int{3, 3}
	tr.Decision(DecisionEvent{Limits: limits, ShadowHits: []uint64{1, 1}, LRUHits: []uint64{2, 2}})
	limits[0] = 99 // caller reuses its buffer; the event must be unaffected
	tr.Flush()
	var ev DecisionEvent
	if err := json.Unmarshal(buf.Bytes(), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Limits[0] != 3 {
		t.Fatalf("event limits aliased the caller's slice: %v", ev.Limits)
	}
}

func TestReplayLimits(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, "a", nil)
	// Interleave noise (block events, another run, non-transfers).
	tr.Block(KindEvict, BlockEvent{Cycle: 5, Core: 0, Owner: 1, Set: 3, Dirty: true})
	tr.Decision(DecisionEvent{Eval: 1, Gainer: 2, Loser: 0, Transferred: true})
	tr.Decision(DecisionEvent{Eval: 2, Gainer: 1, Loser: 3, Transferred: false})
	tr.Decision(DecisionEvent{Eval: 3, Gainer: 2, Loser: 1, Transferred: true})
	tr.Flush()
	other := NewTracer(&buf, "b", nil)
	other.Decision(DecisionEvent{Eval: 1, Gainer: 0, Loser: 2, Transferred: true})
	other.Flush()

	got, err := ReplayLimits(bytes.NewReader(buf.Bytes()), []int{3, 3, 3, 3}, "a")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 2, 5, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replayed limits = %v, want %v", got, want)
		}
	}
	// Empty run filter folds every decision in the file.
	got, err = ReplayLimits(bytes.NewReader(buf.Bytes()), []int{3, 3, 3, 3}, "")
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[2] != 4 {
		t.Fatalf("unfiltered replay = %v", got)
	}
}

// TestReplayLimitsErrors pins the failure modes of trace ingestion: a
// malformed or truncated stream must surface an error (never silently
// return partial limits), an out-of-range core index must be rejected,
// and a run filter matching nothing must leave the limits untouched.
func TestReplayLimitsErrors(t *testing.T) {
	decision := `{"type":"repartition","run":"a","eval":1,"gainer":1,"loser":0,"transferred":true}` + "\n"

	t.Run("truncated line", func(t *testing.T) {
		in := decision + `{"type":"repartition","run":"a","eval":2,"gai`
		if _, err := ReplayLimits(strings.NewReader(in), []int{3, 3}, "a"); err == nil {
			t.Fatal("truncated trace replayed without error")
		}
	})

	t.Run("malformed json mid-stream", func(t *testing.T) {
		in := decision + "{not json}\n" + decision
		_, err := ReplayLimits(strings.NewReader(in), []int{3, 3}, "a")
		if err == nil || !strings.Contains(err.Error(), "bad trace line") {
			t.Fatalf("err = %v, want a bad-trace-line error", err)
		}
	})

	t.Run("core index out of range", func(t *testing.T) {
		in := `{"type":"repartition","run":"a","eval":7,"gainer":9,"loser":0,"transferred":true}` + "\n"
		_, err := ReplayLimits(strings.NewReader(in), []int{3, 3}, "a")
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("err = %v, want an out-of-range error naming the eval", err)
		}
		if err != nil && !strings.Contains(err.Error(), "7") {
			t.Fatalf("err = %v, should identify decision eval 7", err)
		}
	})

	t.Run("negative core index", func(t *testing.T) {
		in := `{"type":"repartition","run":"a","eval":1,"gainer":0,"loser":-1,"transferred":true}` + "\n"
		if _, err := ReplayLimits(strings.NewReader(in), []int{3, 3}, "a"); err == nil {
			t.Fatal("negative loser index replayed without error")
		}
	})

	t.Run("wrong run filtered out", func(t *testing.T) {
		got, err := ReplayLimits(strings.NewReader(decision), []int{3, 3}, "other-run")
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != 3 || got[1] != 3 {
			t.Fatalf("decisions from run %q leaked through filter: %v", "a", got)
		}
	})

	t.Run("empty stream", func(t *testing.T) {
		_, err := ReplayLimits(strings.NewReader(""), []int{2, 4}, "")
		if err == nil || !strings.Contains(err.Error(), "no events") {
			t.Fatalf("err = %v, want a no-events error for an empty trace", err)
		}
	})
}

func TestWriteEpochCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEpochCSV(&buf, []EpochSample{sample(1), sample(2)}); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("emitted CSV does not parse: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("CSV has %d rows, want header + 2", len(rows))
	}
	wantCols := 18 + 6*4 // fixed columns (incl. since_limit_change, lat percentiles) + 6 per-core groups
	if len(rows[0]) != wantCols || len(rows[1]) != wantCols {
		t.Fatalf("CSV has %d cols, want %d", len(rows[0]), wantCols)
	}
	if rows[0][0] != "eval" || rows[1][0] != "1" || rows[2][0] != "2" {
		t.Fatalf("unexpected leading cells: %v %v %v", rows[0][0], rows[1][0], rows[2][0])
	}
	// Empty input: header-less empty output, still no error.
	var empty bytes.Buffer
	if err := WriteEpochCSV(&empty, nil); err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 {
		t.Fatalf("empty sample set wrote %q", empty.String())
	}
}

func TestThroughput(t *testing.T) {
	tp := Throughput{Wall: 2e9, SimCycles: 4_000_000}
	if got := tp.CyclesPerSecond(); got != 2_000_000 {
		t.Fatalf("cycles/s = %v", got)
	}
	if s := tp.String(); !strings.Contains(s, "Mcycles/s") {
		t.Fatalf("String() = %q", s)
	}
	if (Throughput{}).CyclesPerSecond() != 0 {
		t.Fatal("zero throughput should be 0")
	}
}
