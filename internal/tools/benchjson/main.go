// Command benchjson converts `go test -bench` output into a
// machine-readable JSON benchmark record (BENCH_core.json), so the
// repo's performance trajectory can be tracked and asserted on in CI
// instead of eyeballed. The text input stays benchstat-compatible —
// this tool reads the same stream, it does not replace it.
//
// Usage:
//
//	go test -bench=. -benchmem | tee bench.txt
//	go run ./internal/tools/benchjson -in bench.txt -out BENCH_core.json \
//	    -require BenchmarkAdaptiveAccess \
//	    -assert-zero-allocs BenchmarkAdaptiveAccess
//
// -require fails if no benchmark with the given name prefix was parsed
// (catching a silently skipped or renamed benchmark); it may be repeated
// as a comma-separated list. -assert-zero-allocs fails if any matching
// benchmark reports allocs/op > 0 — the steady-state access-path
// guarantee the flat-arena engine makes. -max-ratio takes
// "Numerator/Denominator=limit" entries and fails if the ns/op ratio of
// the two named benchmarks exceeds the limit — the telemetry-tax gate
// (instrumented access path ≤ 2× bare). An entry written
// "Numerator/Denominator:allocs=limit" gates the allocs/op ratio
// instead, and "Numerator/Denominator:bytes=limit" the B/op ratio.
// Measured ratios are recorded in the JSON output either way,
// under the entry's name without its limit.
//
// The GOMAXPROCS suffix of a benchmark name ("-4") is dropped, unless the
// input holds the benchmark at several GOMAXPROCS values (a -cpu list):
// then each value keeps its own record, named "<name>/cpu=<N>".
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"nucasim/internal/atomicio"
)

// Benchmark is one aggregated benchmark result: the mean over every
// parsed run of the same name (count=N produces N lines per benchmark).
type Benchmark struct {
	Name        string             `json:"name"`
	Runs        int                `json:"runs"`
	Iterations  uint64             `json:"iterations"` // summed over runs
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"` // b.ReportMetric extras
}

// Record is the whole JSON document.
type Record struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	// Ratios records every -max-ratio measurement, keyed
	// "Numerator/Denominator", whether or not it passed.
	Ratios map[string]float64 `json:"ratios,omitempty"`
}

// accum collects the per-run samples of one benchmark name at one
// GOMAXPROCS value.
type accum struct {
	name    string
	procs   int
	runs    int
	iters   uint64
	sums    map[string]float64 // unit → summed value
	hasMem  bool
	ordinal int // first-seen order, for stable output
}

func main() {
	in := flag.String("in", "-", "bench output to parse ('-' = stdin)")
	out := flag.String("out", "", "JSON file to write ('' = stdout)")
	require := flag.String("require", "", "comma-separated benchmark name prefixes that must be present")
	assertZero := flag.String("assert-zero-allocs", "", "comma-separated benchmark name prefixes that must report 0 allocs/op")
	maxRatio := flag.String("max-ratio", "", "comma-separated Numerator/Denominator[:allocs|:bytes]=limit ratio gates (ns/op, allocs/op or B/op)")
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	rec, err := parse(r)
	if err != nil {
		fatal(err)
	}

	var failures []string
	for _, name := range splitList(*require) {
		if !anyMatch(rec.Benchmarks, name) {
			failures = append(failures, fmt.Sprintf("required benchmark %q not found in input", name))
		}
	}
	for _, name := range splitList(*assertZero) {
		matched := false
		for _, b := range rec.Benchmarks {
			if !matchName(b.Name, name) {
				continue
			}
			matched = true
			if b.AllocsPerOp != 0 {
				failures = append(failures, fmt.Sprintf("%s: %g allocs/op, want 0", b.Name, b.AllocsPerOp))
			}
		}
		if !matched {
			failures = append(failures, fmt.Sprintf("assert-zero-allocs: no benchmark matches %q", name))
		}
	}
	for _, spec := range splitList(*maxRatio) {
		key, ratio, err := checkRatio(rec.Benchmarks, spec)
		if err != nil {
			failures = append(failures, err.Error())
			continue
		}
		if rec.Ratios == nil {
			rec.Ratios = map[string]float64{}
		}
		rec.Ratios[key] = ratio
	}

	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else if err := atomicio.WriteFile(*out, func(w io.Writer) error {
		_, werr := w.Write(data)
		return werr
	}); err != nil {
		fatal(err)
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "benchjson:", f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
}

// parse folds a `go test -bench` text stream into aggregated results.
// Benchmark lines look like
//
//	BenchmarkAdaptiveAccess-4   92633254   11.48 ns/op   0 B/op   0 allocs/op
//
// with (value, unit) pairs after the iteration count; ReportMetric adds
// more pairs with custom units. Header lines (goos/goarch/pkg/cpu) fill
// the record envelope; everything else is ignored.
func parse(r io.Reader) (Record, error) {
	rec := Record{}
	accums := map[string]*accum{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			rec.Goos = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			rec.Goarch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "pkg: "):
			rec.Pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			rec.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		name, procs := splitProcSuffix(fields[0])
		iters, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			continue // e.g. "BenchmarkX    --- FAIL"
		}
		key := fmt.Sprintf("%s\x00%d", name, procs)
		a := accums[key]
		if a == nil {
			a = &accum{name: name, procs: procs, sums: map[string]float64{}, ordinal: len(accums)}
			accums[key] = a
		}
		a.runs++
		a.iters += iters
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return rec, fmt.Errorf("benchjson: bad value %q on line %q", fields[i], line)
			}
			unit := fields[i+1]
			a.sums[unit] += v
			if unit == "allocs/op" {
				a.hasMem = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		return rec, err
	}

	ordered := make([]*accum, 0, len(accums))
	procsOf := map[string]int{} // name → number of GOMAXPROCS values seen
	for _, a := range accums {
		ordered = append(ordered, a)
		procsOf[a.name]++
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ordinal < ordered[j].ordinal })
	for _, a := range ordered {
		name := a.name
		if procsOf[name] > 1 {
			name = fmt.Sprintf("%s/cpu=%d", name, a.procs)
		}
		b := Benchmark{Name: name, Runs: a.runs, Iterations: a.iters}
		for unit, sum := range a.sums {
			mean := sum / float64(a.runs)
			switch unit {
			case "ns/op":
				b.NsPerOp = mean
			case "B/op":
				b.BytesPerOp = mean
			case "allocs/op":
				b.AllocsPerOp = mean
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = mean
			}
		}
		if !a.hasMem {
			b.AllocsPerOp = -1 // run lacked -benchmem; distinguish from a true zero
			b.BytesPerOp = -1
		}
		rec.Benchmarks = append(rec.Benchmarks, b)
	}
	return rec, nil
}

// ratioUnits are the measures a ratio gate can compare, by the suffix
// of its spec's key.
var ratioUnits = map[string]struct {
	unit  string
	value func(Benchmark) float64
}{
	"":        {"ns/op", func(b Benchmark) float64 { return b.NsPerOp }},
	":allocs": {"allocs/op", func(b Benchmark) float64 { return b.AllocsPerOp }},
	":bytes":  {"B/op", func(b Benchmark) float64 { return b.BytesPerOp }},
}

// checkRatio evaluates one "Numerator/Denominator[:allocs|:bytes]=limit"
// gate against the parsed benchmarks and returns the key and measured
// ratio of ns/op, or of allocs/op or B/op with the ":allocs" or ":bytes"
// suffix. A missing benchmark, an unparsable spec, or a ratio above the
// limit is an error.
func checkRatio(bs []Benchmark, spec string) (key string, ratio float64, err error) {
	key, limitStr, ok := strings.Cut(spec, "=")
	names, _, _ := strings.Cut(key, ":")
	num, den, ok2 := strings.Cut(names, "/")
	measure, ok3 := ratioUnits[key[len(names):]]
	if !ok || !ok2 || !ok3 {
		return "", 0, fmt.Errorf("max-ratio: bad spec %q, want Numerator/Denominator[:allocs|:bytes]=limit", spec)
	}
	limit, err := strconv.ParseFloat(limitStr, 64)
	if err != nil {
		return "", 0, fmt.Errorf("max-ratio: bad limit in %q: %v", spec, err)
	}
	unit, value := measure.unit, measure.value
	lookup := func(name string) (Benchmark, error) {
		for _, b := range bs {
			if b.Name == name {
				if value(b) < 0 {
					return Benchmark{}, fmt.Errorf("max-ratio: %s has no %s (the run lacked -benchmem)", name, unit)
				}
				return b, nil
			}
		}
		return Benchmark{}, fmt.Errorf("max-ratio: benchmark %q not found in input", name)
	}
	nb, err := lookup(num)
	if err != nil {
		return "", 0, err
	}
	db, err := lookup(den)
	if err != nil {
		return "", 0, err
	}
	if value(db) <= 0 {
		return "", 0, fmt.Errorf("max-ratio: %s reports %g %s, cannot form a ratio", den, value(db), unit)
	}
	ratio = value(nb) / value(db)
	if ratio > limit {
		return "", 0, fmt.Errorf("max-ratio: %s = %.2f %s / %.2f %s = %.2fx, limit %gx",
			key, value(nb), unit, value(db), unit, ratio, limit)
	}
	return key, ratio, nil
}

// splitProcSuffix splits off the -GOMAXPROCS suffix go test appends (none means 1).
func splitProcSuffix(name string) (string, int) {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i], n
		}
	}
	return name, 1
}

// matchName matches a benchmark against a name prefix: exact, or the
// prefix followed by a sub-benchmark separator.
func matchName(name, prefix string) bool {
	return name == prefix || strings.HasPrefix(name, prefix+"/")
}

func anyMatch(bs []Benchmark, prefix string) bool {
	for _, b := range bs {
		if matchName(b.Name, prefix) {
			return true
		}
	}
	return false
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
