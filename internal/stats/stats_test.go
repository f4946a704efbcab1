package stats

import (
	"encoding/csv"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if !almost(Mean([]float64{1, 2, 3}), 2) {
		t.Fatal("Mean([1,2,3]) != 2")
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
}

func TestHarmonicMeanKnown(t *testing.T) {
	// HM(1, 2) = 2/(1 + 0.5) = 4/3
	if !almost(HarmonicMean([]float64{1, 2}), 4.0/3) {
		t.Fatal("HM(1,2) != 4/3")
	}
	if HarmonicMean([]float64{1, 0}) != 0 {
		t.Fatal("HM with zero element must be 0")
	}
	if HarmonicMean(nil) != 0 {
		t.Fatal("HM(nil) != 0")
	}
}

func TestHarmonicLEArithmetic(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r%1000) + 1
		}
		return HarmonicMean(xs) <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeometricMean(t *testing.T) {
	if !almost(GeometricMean([]float64{2, 8}), 4) {
		t.Fatal("GM(2,8) != 4")
	}
	if GeometricMean([]float64{2, -1}) != 0 {
		t.Fatal("GM with negative must be 0")
	}
}

func TestMeansEqualForConstant(t *testing.T) {
	xs := []float64{3.5, 3.5, 3.5}
	if !almost(Mean(xs), 3.5) || !almost(HarmonicMean(xs), 3.5) || !almost(GeometricMean(xs), 3.5) {
		t.Fatal("all means of a constant series must equal the constant")
	}
}

func TestSpeedupAndPercent(t *testing.T) {
	if !almost(Speedup(1.21, 1.0), 1.21) {
		t.Fatal("Speedup wrong")
	}
	if Speedup(1, 0) != 0 {
		t.Fatal("Speedup with zero baseline must be 0")
	}
	if !almost(PercentGain(1.21, 1.0), 21) {
		t.Fatal("PercentGain wrong")
	}
	if PercentGain(1, -1) != 0 {
		t.Fatal("PercentGain with bad baseline must be 0")
	}
}

func TestAccumulator(t *testing.T) {
	var a Accumulator
	if a.N() != 0 || a.Mean() != 0 {
		t.Fatal("zero Accumulator must report zeros")
	}
	if _, ok := a.Min(); ok {
		t.Fatal("empty Accumulator Min must report ok=false")
	}
	if _, ok := a.Max(); ok {
		t.Fatal("empty Accumulator Max must report ok=false")
	}
	for _, v := range []float64{3, 1, 2} {
		a.Add(v)
	}
	mn, okMin := a.Min()
	mx, okMax := a.Max()
	if a.N() != 3 || !almost(a.Mean(), 2) || !okMin || mn != 1 || !okMax || mx != 3 {
		t.Fatalf("Accumulator wrong: n=%d mean=%v min=%v max=%v", a.N(), a.Mean(), mn, mx)
	}
	vals := a.Values()
	vals[0] = 99
	if mn, _ := a.Min(); mn == 99 {
		t.Fatal("Values must return a copy")
	}
	// A legitimate 0 sample is distinguishable from emptiness.
	var zeros Accumulator
	zeros.Add(0)
	if mn, ok := zeros.Min(); !ok || mn != 0 {
		t.Fatalf("Min of {0} = (%v, %v), want (0, true)", mn, ok)
	}
}

func TestTableSortAndRender(t *testing.T) {
	tb := NewTable("demo", "speedup")
	tb.AddRow("b", 2)
	tb.AddRow("a", 1)
	tb.AddRow("c", 3)
	tb.SortByColumn(0)
	label, vals := tb.Row(0)
	if label != "a" || vals[0] != 1 {
		t.Fatalf("sort failed: first row %s %v", label, vals)
	}
	out := tb.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "speedup") {
		t.Fatalf("render missing title/header:\n%s", out)
	}
	ai := strings.Index(out, "a")
	ci := strings.Index(out, "c")
	if ai > ci {
		t.Fatal("rows not rendered in sorted order")
	}

	// Names of 14 or more characters get a column that fits them, and
	// each value ends where its column name ends.
	wide := NewTable("wide", "mean_ipc", "llc_misses_per_kcycle", "x")
	wide.AddRow("r", 1, 2, 3)
	lines := strings.Split(wide.String(), "\n")
	header, row := lines[1], lines[2]
	if !strings.Contains(header, "mean_ipc llc_misses_per_kcycle") {
		t.Fatalf("long column names run together:\n%s", header)
	}
	for _, pair := range [][2]string{{"mean_ipc", "1.0000"}, {"llc_misses_per_kcycle", "2.0000"}, {" x", "3.0000"}} {
		if end := strings.Index(header, pair[0]) + len(pair[0]); end != strings.Index(row, pair[1])+len(pair[1]) {
			t.Fatalf("value %s misaligned under %s:\n%s\n%s", pair[1], pair[0], header, row)
		}
	}
}

func TestTableColumnMean(t *testing.T) {
	tb := NewTable("m", "x", "y")
	tb.AddRow("r1", 1, 10)
	tb.AddRow("r2", 3, 20)
	if !almost(tb.ColumnMean(0), 2) || !almost(tb.ColumnMean(1), 15) {
		t.Fatal("ColumnMean wrong")
	}
}

func TestTableRowCopies(t *testing.T) {
	tb := NewTable("m", "x")
	tb.AddRow("r", 5)
	_, vals := tb.Row(0)
	vals[0] = 42
	_, again := tb.Row(0)
	if again[0] != 5 {
		t.Fatal("Row must return copies")
	}
}

func TestTableWriteCSV(t *testing.T) {
	tb := NewTable("demo table", "ipc", "speedup")
	tb.AddRow("gzip", 1.5, 1.0)
	tb.AddRow("mcf", 0.25, 2.0)
	var buf strings.Builder
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV has %d lines, want 4: %q", len(lines), buf.String())
	}
	if lines[0] != "# demo table" {
		t.Fatalf("title line = %q", lines[0])
	}
	rows, err := csv.NewReader(strings.NewReader(strings.Join(lines[1:], "\n"))).ReadAll()
	if err != nil {
		t.Fatalf("emitted CSV does not parse: %v", err)
	}
	if rows[0][0] != "label" || rows[1][0] != "gzip" || rows[2][2] != "2" {
		t.Fatalf("unexpected CSV cells: %v", rows)
	}
}

func TestTableMarshalJSON(t *testing.T) {
	tb := NewTable("demo", "x")
	tb.AddRow("a", 1)
	b, err := json.Marshal(tb)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Title   string   `json:"title"`
		Columns []string `json:"columns"`
		Rows    []struct {
			Label  string    `json:"label"`
			Values []float64 `json:"values"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Title != "demo" || len(got.Rows) != 1 || got.Rows[0].Label != "a" || got.Rows[0].Values[0] != 1 {
		t.Fatalf("round trip = %+v", got)
	}
}
