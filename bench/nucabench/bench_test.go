package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFile checks BENCHMARK.json against the limits on its
// counts, names, units and bounds, and against the metrics this program
// emits.
func TestBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
		if !unitRE.MatchString(unit) {
			t.Errorf("%s: bad unit %q", name, unit)
		}
	}
	var names []string
	for _, w := range bf.Workloads {
		check(w.Name, "x")
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloads)
	}
	var maxBound float64
	for _, m := range bf.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range bf.PerLayer {
		check(m.Name, m.Unit)
	}
	if i := indexOf(bf.EndToEnd, "setup_s"); i < 0 || bf.EndToEnd[i].Unit != "s" ||
		bf.EndToEnd[i].Better != "lower" || bf.EndToEnd[i].Bound != maxBound {
		t.Error("setup_s must be declared in s, lower is better, with the largest bound")
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, program emits %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if i < len(bf.EndToEnd) && (bf.EndToEnd[i].Name != d.name || bf.EndToEnd[i].Unit != d.unit) {
			t.Errorf("end-to-end metric %d: declared %s [%s], emitted %s [%s]", i, bf.EndToEnd[i].Name, bf.EndToEnd[i].Unit, d.name, d.unit)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, program emits %d", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if i < len(bf.PerLayer) && (bf.PerLayer[i].Name != d.name || bf.PerLayer[i].Unit != d.unit) {
			t.Errorf("per-layer metric %d: declared %s [%s], emitted %s [%s]", i, bf.PerLayer[i].Name, bf.PerLayer[i].Unit, d.name, d.unit)
		}
	}
}

func indexOf(ms []declaredMetric, name string) int {
	for i, m := range ms {
		if m.Name == name {
			return i
		}
	}
	return -1
}

// TestSmoke builds the command and runs every workload at smoke size,
// untraced and traced, as the benchmark's runner would: each must verify
// its outputs, emit exactly its declared metrics with their units, and
// (traced) reproduce the untraced simulated statistics, which the
// command enforces by exiting non-zero.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	dir := t.TempDir()
	exe := filepath.Join(dir, "nucabench")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, name := range workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(name+"/trace="+traced, func(t *testing.T) {
				cmd := exec.Command(exe, "--workload", name, "--seed", "3", "--seconds", "0.5",
					"--trace", traced, "-smoke", "-benchdir", dir)
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("%v\n%s", err, out)
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				if !strings.Contains(string(out), "pinned=false") {
					t.Error("an unpinned run must say pinned=false")
				}
				var res Result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if traced == "1" {
					defs = perLayer
					checkPerfetto(t, filepath.Join(dir, "out", "trace-"+name+"-seed3.json"))
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
					if isTime(d.unit) && m.Value <= 0 {
						t.Errorf("time metric %s = %v, want > 0", d.name, m.Value)
					}
				}
			})
		}
	}
}

// checkPerfetto validates the trace file's schema: Chrome trace-event
// JSON whose events are complete ("X") spans with non-negative times.
func checkPerfetto(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatalf("%s holds no events", path)
	}
	for _, ev := range doc.TraceEvents {
		name, _ := ev["name"].(string)
		ts, tsOK := ev["ts"].(float64)
		dur, durOK := ev["dur"].(float64)
		_, pidOK := ev["pid"].(float64)
		_, tidOK := ev["tid"].(float64)
		if name == "" || ev["ph"] != "X" || !tsOK || !durOK || !pidOK || !tidOK || ts < 0 || dur < 0 {
			t.Fatalf("%s: malformed event %v", path, ev)
		}
	}
}

func TestVerifyDigests(t *testing.T) {
	pinned := &env{workload: "w", pinned: map[string][]string{"1": {"a", "b"}}}
	if err := pinned.verify("1", []string{"a", "b"}); err != nil {
		t.Error(err)
	}
	if pinned.verify("1", []string{"a", "c"}) == nil {
		t.Error("a digest differing from the pinned one must fail")
	}
	if pinned.verify("2", []string{"a"}) == nil {
		t.Error("an op with no pinned digest must fail")
	}
	unpinned := &env{workload: "w", seen: map[string][]string{}}
	if err := unpinned.verify("7", []string{"x"}); err != nil {
		t.Error(err)
	}
	if unpinned.verify("7", []string{"y"}) == nil {
		t.Error("a repeated seed with a different digest must fail")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := declaredMetric{Name: "op_ms_p50", Better: "lower", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{scale(1.0), "within bound"},
		{scale(1.05), "within bound"},
		{scale(1.2), "worse"},
		{scale(0.8), "better"},
		{[]float64{50, 150, 60, 140, 100, 55, 145, 100, 98, 102}, "unresolved"},
	} {
		if got := verdict(base, c.b, lower); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.b, got, c.want)
		}
	}
}

func TestFoldTop(t *testing.T) {
	out := `File: nucabench
Showing nodes accounting for 300ms, 100% of 300ms total
      flat  flat%   sum%        cum   cum%
     150ms 50.00% 50.00%      200ms 66.67%  nucasim/internal/cpu.(*Core).issue
      90ms 30.00% 80.00%       90ms 30.00%  nucasim/internal/memaddr.Addr.BlockNum (inline)
      40ms 13.33% 93.33%       40ms 13.33%  runtime.mallocgc
      20ms  6.67%   100%       20ms  6.67%  math.archLog
`
	flat, err := foldTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"cpu": 150, "other": 110, "runtime": 40}
	for k, v := range want {
		if flat[k] != v {
			t.Errorf("%s = %v, want %v", k, flat[k], v)
		}
	}
}
