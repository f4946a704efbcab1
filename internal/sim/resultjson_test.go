package sim

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"nucasim/internal/llc"
	"nucasim/internal/telemetry"
)

// encodeResultReference is the encoder EncodeResult replaced: the
// reflection encoder with two-space indentation over the whole result.
// It is the oracle EncodeResult's bytes must equal.
func encodeResultReference(r Result) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkEncodeResult fails unless EncodeResult(r) equals the oracle and,
// when it splices rows, fills the buffer it sized exactly.
func checkEncodeResult(t testing.TB, r Result) {
	t.Helper()
	want, err := encodeResultReference(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("EncodeResult differs from the encoder at byte %d of %d (want %d bytes):\ngot  %q\nwant %q",
			i, len(got), len(want), got[max(0, i-40):min(len(got), i+40)], want[max(0, i-40):min(len(want), i+40)])
	}
	if len(r.SetStats) > 0 && cap(got) != len(got) {
		t.Fatalf("EncodeResult sized its buffer for %d bytes, wrote %d", cap(got), len(got))
	}
}

// TestEncodeResultMatchesEncoder holds EncodeResult to the encoder it
// replaced: the results of every scheme with telemetry off and on, an
// adaptive run whose replay self-check verified epochs, and edited
// copies that reach every splice point and the extremes of a row.
func TestEncodeResultMatchesEncoder(t *testing.T) {
	mix := mixOf(t, "ammp", "swim", "lucas", "gzip")
	cases := map[string]Result{}
	for _, scheme := range Schemes() {
		for _, tel := range []bool{false, true} {
			cfg := small(scheme)
			name := string(scheme)
			if tel {
				cfg.Telemetry = &telemetry.Config{}
				name += "/telemetry"
			}
			cases[name] = Run(cfg, mix)
		}
	}
	adaptive := cases[string(SchemeAdaptive)+"/telemetry"]
	if len(adaptive.SetStats) == 0 {
		t.Fatal("adaptive run with telemetry reported no per-set stats")
	}

	cfg := small(SchemeAdaptive)
	cfg.ReplayVerify = true
	verified := Run(cfg, mix)
	if verified.ReplayEpochsVerified == 0 || len(verified.SetStats) == 0 {
		t.Fatalf("replay-verified run: %d epochs verified, %d set rows; the window verifies nothing",
			verified.ReplayEpochsVerified, len(verified.SetStats))
	}
	cases["adaptive/replay-verified"] = verified

	failed := adaptive
	failed.ReplayVerifyError = "set 3: \"owner\" differs\n<&> at epoch 2"
	cases["verify-error"] = failed
	both := failed
	both.ReplayEpochsVerified = 7
	cases["verified-and-error"] = both

	noRows := adaptive
	noRows.SetStats = nil
	cases["nil-rows"] = noRows
	noRows.SetStats = []llc.SetStats{}
	cases["empty-rows"] = noRows

	extreme := adaptive
	extreme.SetStats = make([]llc.SetStats, 3)
	extreme.SetStats[1] = llc.SetStats{Fills: math.MaxUint64, Swaps: math.MaxUint64, Migrations: math.MaxUint64,
		Demotions: math.MaxUint64, Evictions: math.MaxUint64, Steals: math.MaxUint64}
	extreme.SetStats[2].Steals = math.MaxUint64
	cases["max-uint64-rows"] = extreme
	single := extreme
	single.SetStats = extreme.SetStats[1:2]
	cases["one-row"] = single

	// In parallel, so the race detector sees the pooled encoders shared.
	for name, r := range cases {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			checkEncodeResult(t, r)
		})
	}
}

// TestEncodeResultFieldLists fails when llc.SetStats or the fields of
// Result after SetStats change without EncodeResult following: the
// renderer writes those names itself, so a schema change must break
// this test rather than the pinned result bytes.
func TestEncodeResultFieldLists(t *testing.T) {
	st := reflect.TypeOf(llc.SetStats{})
	var names []string
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		names = append(names, f.Name)
		if f.Type.Kind() != reflect.Uint64 || f.Tag != "" {
			t.Errorf("llc.SetStats.%s is %s with tag %q; the renderer writes untagged uint64 fields", f.Name, f.Type, f.Tag)
		}
	}
	if !reflect.DeepEqual(names, setStatsFields[:]) {
		t.Errorf("llc.SetStats fields %v, renderer writes %v", names, setStatsFields)
	}
	// Each field must come back in its own position.
	var s llc.SetStats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(uint64(i + 1))
	}
	for i, got := range setStatsValues(s) {
		if got != uint64(i+1) {
			t.Errorf("setStatsValues position %d holds field %d", i, got-1)
		}
	}

	rt := reflect.TypeOf(Result{})
	rows, ok := rt.FieldByName("SetStats")
	if !ok || rows.Tag.Get("json") != ",omitempty" {
		t.Fatalf("Result.SetStats: present %v, json tag %q; the renderer omits it when empty", ok, rows.Tag.Get("json"))
	}
	var after []string
	for i := rows.Index[0] + 1; i < rt.NumField(); i++ {
		f := rt.Field(i)
		after = append(after, f.Name)
		want := ",omitempty"
		if f.Name == "Throughput" {
			want = "" // always present: the splice point of last resort
		}
		if tag := f.Tag.Get("json"); tag != want {
			t.Errorf("Result.%s has json tag %q, the renderer expects %q", f.Name, tag, want)
		}
	}
	if !reflect.DeepEqual(after, resultFieldsAfterSetStats) {
		t.Errorf("Result fields after SetStats %v, renderer knows %v", after, resultFieldsAfterSetStats)
	}
}

// FuzzEncodeResult holds EncodeResult to the encoder on results with a
// random number of SetStats rows of random magnitude, and random
// trailing replay fields.
func FuzzEncodeResult(f *testing.F) {
	f.Add(uint16(0), uint64(0), uint64(0), "")
	f.Add(uint16(1), uint64(1), uint64(0), "")
	f.Add(uint16(4096), uint64(42), uint64(3), "")
	f.Add(uint16(17), uint64(9), uint64(0), "diverged: \"x\"\n<&>")
	f.Add(uint16(2), uint64(math.MaxUint64), uint64(math.MaxUint64), "\xff ")
	f.Fuzz(func(t *testing.T, n uint16, seed, verified uint64, verifyErr string) {
		r := Result{
			Scheme:               SchemeAdaptive,
			Mix:                  []string{"ammp", "swim"},
			Counters:             map[string]uint64{"adaptive.demotions": seed},
			ReplayEpochsVerified: verified,
			ReplayVerifyError:    verifyErr,
			Throughput:           telemetry.Throughput{SimCycles: seed},
		}
		if n > 0 {
			r.SetStats = make([]llc.SetStats, n%8192)
		}
		x := seed
		for i := range r.SetStats {
			v := reflect.ValueOf(&r.SetStats[i]).Elem()
			for j := 0; j < v.NumField(); j++ {
				// splitmix64, shifted so magnitudes span every digit count.
				x += 0x9e3779b97f4a7c15
				z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
				z = (z ^ z>>27) * 0x94d049bb133111eb
				z ^= z >> 31
				v.Field(j).SetUint(z >> (z & 63))
			}
		}
		checkEncodeResult(t, r)
	})
}

// encodeBenchResult is the ROADMAP's serve result-size case: a 4-core
// adaptive run with telemetry on, 200k warmup instructions and 100k
// measured cycles (4096 SetStats rows, about 0.6 MB of JSON).
func encodeBenchResult(b *testing.B) Result {
	r := Run(Config{Scheme: SchemeAdaptive, Seed: 1, WarmupInstructions: 200_000, MeasureCycles: 100_000,
		Telemetry: &telemetry.Config{}}, mixOf(b, "ammp", "art", "mcf", "swim"))
	r.Throughput.Wall = 0
	return r
}

func benchmarkEncode(b *testing.B, encode func(Result) ([]byte, error)) {
	r := encodeBenchResult(b)
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		out, err := encode(r)
		if err != nil {
			b.Fatal(err)
		}
		n = len(out)
	}
	b.SetBytes(int64(n))
}

// BenchmarkEncodeResult renders a telemetry-on adaptive result;
// BenchmarkEncodeResultReference renders it with the encoder it
// replaced. make bench-serve gates their ratio.
func BenchmarkEncodeResult(b *testing.B) { benchmarkEncode(b, EncodeResult) }

func BenchmarkEncodeResultReference(b *testing.B) { benchmarkEncode(b, encodeResultReference) }
