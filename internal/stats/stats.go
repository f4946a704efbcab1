// Package stats provides the aggregate metrics the paper reports —
// arithmetic and harmonic means of per-core IPC, speedups relative to a
// baseline scheme — plus simple text tables for the experiment harness.
//
// The paper optimizes and reports the harmonic mean of per-core IPC
// (Section 2.6, citing Smith): systems are bound by their slowest
// application, so the harmonic mean is the headline number everywhere.
package stats

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// HarmonicMean returns the harmonic mean of xs. Any non-positive element
// makes the harmonic mean 0 (an idle core dominates, which is exactly the
// behaviour the metric is chosen for).
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += 1 / x
	}
	return float64(len(xs)) / sum
}

// GeometricMean returns the geometric mean of xs; non-positive elements
// yield 0.
func GeometricMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// Speedup returns value/baseline, or 0 if the baseline is non-positive.
func Speedup(value, baseline float64) float64 {
	if baseline <= 0 {
		return 0
	}
	return value / baseline
}

// PercentGain returns (value/baseline - 1) * 100, or 0 for a bad baseline.
func PercentGain(value, baseline float64) float64 {
	if baseline <= 0 {
		return 0
	}
	return (value/baseline - 1) * 100
}

// Accumulator collects samples and answers summary queries. The zero value
// is ready to use.
type Accumulator struct {
	xs []float64
}

// Add appends a sample.
func (a *Accumulator) Add(x float64) { a.xs = append(a.xs, x) }

// N returns the number of samples.
func (a *Accumulator) N() int { return len(a.xs) }

// Mean returns the arithmetic mean of the samples.
func (a *Accumulator) Mean() float64 { return Mean(a.xs) }

// HarmonicMean returns the harmonic mean of the samples.
func (a *Accumulator) HarmonicMean() float64 { return HarmonicMean(a.xs) }

// Min returns the smallest sample and true, or (0, false) for an empty
// accumulator — a legitimate 0 sample and "no samples" must be
// distinguishable.
func (a *Accumulator) Min() (float64, bool) {
	if len(a.xs) == 0 {
		return 0, false
	}
	m := a.xs[0]
	for _, x := range a.xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, true
}

// Max returns the largest sample and true, or (0, false) for an empty
// accumulator.
func (a *Accumulator) Max() (float64, bool) {
	if len(a.xs) == 0 {
		return 0, false
	}
	m := a.xs[0]
	for _, x := range a.xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, true
}

// Values returns a copy of the collected samples.
func (a *Accumulator) Values() []float64 {
	out := make([]float64, len(a.xs))
	copy(out, a.xs)
	return out
}

// Table renders labelled rows of float columns as fixed-width text, the
// output format of every cmd/experiments figure.
type Table struct {
	Title    string
	ColNames []string
	rows     []tableRow
}

type tableRow struct {
	label string
	vals  []float64
}

// NewTable creates a table with the given title and column names.
func NewTable(title string, colNames ...string) *Table {
	return &Table{Title: title, ColNames: colNames}
}

// AddRow appends a row; the number of values should match ColNames.
func (t *Table) AddRow(label string, vals ...float64) {
	t.rows = append(t.rows, tableRow{label: label, vals: vals})
}

// SortByColumn orders rows ascending by the given value column.
func (t *Table) SortByColumn(col int) {
	sort.SliceStable(t.rows, func(i, j int) bool {
		return t.rows[i].vals[col] < t.rows[j].vals[col]
	})
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Row returns the label and values of row i.
func (t *Table) Row(i int) (string, []float64) {
	r := t.rows[i]
	vals := make([]float64, len(r.vals))
	copy(vals, r.vals)
	return r.label, vals
}

// ColumnMean returns the arithmetic mean of one column across all rows.
func (t *Table) ColumnMean(col int) float64 {
	var acc Accumulator
	for _, r := range t.rows {
		if col < len(r.vals) {
			acc.Add(r.vals[col])
		}
	}
	return acc.Mean()
}

// WriteCSV renders the table as CSV: a comment line with the title
// (prefixed "# "), a header row ("label" + column names), then one row
// per data row. The machine-readable artifact behind cmd/experiments
// -metrics-out.
func (t *Table) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	header := append([]string{"label"}, t.ColNames...)
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, 0, len(header))
	for _, r := range t.rows {
		row = append(row[:0], r.label)
		for _, v := range r.vals {
			row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// tableJSON is the export schema of MarshalJSON.
type tableJSON struct {
	Title   string         `json:"title"`
	Columns []string       `json:"columns"`
	Rows    []tableRowJSON `json:"rows"`
}

type tableRowJSON struct {
	Label  string    `json:"label"`
	Values []float64 `json:"values"`
}

// MarshalJSON renders the table as
// {"title": ..., "columns": [...], "rows": [{"label", "values"}, ...]}.
func (t *Table) MarshalJSON() ([]byte, error) {
	out := tableJSON{Title: t.Title, Columns: t.ColNames, Rows: []tableRowJSON{}}
	for _, r := range t.rows {
		out.Rows = append(out.Rows, tableRowJSON{Label: r.label, Values: r.vals})
	}
	return json.Marshal(out)
}

// UnmarshalJSON parses the MarshalJSON schema back into a table, so
// clients (cmd/experiments -server) can re-render a downloaded table.json
// with the same text/CSV formatters as a locally built one.
func (t *Table) UnmarshalJSON(data []byte) error {
	var in tableJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	t.Title = in.Title
	t.ColNames = in.Columns
	t.rows = t.rows[:0]
	for _, r := range in.Rows {
		t.rows = append(t.rows, tableRow{label: r.Label, vals: r.Values})
	}
	return nil
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	labelW := len("benchmark")
	for _, r := range t.rows {
		if len(r.label) > labelW {
			labelW = len(r.label)
		}
	}
	// A column is 14 wide, or wider when its name needs it, so that
	// names never run together.
	width := func(col int) int {
		if col < len(t.ColNames) {
			return max(14, len(t.ColNames[col])+1)
		}
		return 14
	}
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%-*s", labelW+2, "")
	for i, c := range t.ColNames {
		fmt.Fprintf(&b, "%*s", width(i), c)
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		fmt.Fprintf(&b, "%-*s", labelW+2, r.label)
		for i, v := range r.vals {
			fmt.Fprintf(&b, "%*.4f", width(i), v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
