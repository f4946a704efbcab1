package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// declaredMetric is one end-to-end metric as BENCHMARK.json declares it.
type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json the tools read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	err = json.Unmarshal(data, &bf)
	return bf, err
}

// readRecords loads the untraced records of a result set file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Traced {
			recs = append(recs, r)
		}
	}
	return recs, sc.Err()
}

// valuesBy groups a set's values by workload and metric, in run order.
func valuesBy(recs []record) map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, r := range recs {
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// verdict judges set B (the change) against set A (the parent) on one
// metric, following the benchmark's rules: a regression is a median worse
// by more than the bound; a spread (interquartile range over median)
// wider than the bound leaves the metric unresolved unless every run of
// one side beats every run of the other; a gain needs the medians to
// differ by more than A's own spread and B to win at least nine tenths
// of the runs paired in order.
func verdict(a, b []float64, d declaredMetric) string {
	if len(a) == 0 || len(b) == 0 {
		return "missing"
	}
	sign := 1.0 // positive = worse
	if d.Better == "higher" {
		sign = -1
	}
	medA, medB := median(a), median(b)
	delta := sign * (medB - medA) / medA
	spread := max(relSpread(a), relSpread(b))
	if spread > d.Bound {
		switch {
		case dominates(b, a, sign):
			return "better"
		case dominates(a, b, sign):
			return "worse"
		}
		return "unresolved"
	}
	if delta > d.Bound {
		return "worse"
	}
	if -delta > relSpread(a) {
		wins, pairs := 0, min(len(a), len(b))
		for i := 0; i < pairs; i++ {
			if sign*(b[i]-a[i]) < 0 {
				wins++
			}
		}
		if 10*wins >= 9*pairs {
			return "better"
		}
	}
	return "within bound"
}

func relSpread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// dominates reports whether every value of x is better than every value
// of y.
func dominates(x, y []float64, sign float64) bool {
	for _, u := range x {
		for _, v := range y {
			if sign*(u-v) >= 0 {
				return false
			}
		}
	}
	return true
}

// compareFiles prints, for every workload and end-to-end metric, both
// sets' medians and quartiles, the change in the median against the
// metric's bound, and a verdict.
func compareFiles(w io.Writer, benchmarkPath, pathA, pathB string) error {
	bf, err := readBenchmarkFile(benchmarkPath)
	if err != nil {
		return err
	}
	recsA, err := readRecords(pathA)
	if err != nil {
		return err
	}
	recsB, err := readRecords(pathB)
	if err != nil {
		return err
	}
	for _, set := range []struct {
		name string
		recs []record
	}{{"A", recsA}, {"B", recsB}} {
		hosts := map[Host]bool{}
		seeds := map[uint64]bool{}
		for _, r := range set.recs {
			hosts[r.Host] = true
			seeds[r.Seed] = true
		}
		for h := range hosts {
			fmt.Fprintf(w, "%s: %d records, seeds %v, host %s, nproc %d, %s, GOMAXPROCS %d\n",
				set.name, len(set.recs), sortedSeeds(seeds), h.CPU, h.NumCPU, h.GoVersion, h.GOMAXPROCS)
		}
	}
	va, vb := valuesBy(recsA), valuesBy(recsB)
	fmt.Fprintf(w, "%-8s %-18s %12s %12s %12s %12s %12s %12s %8s %6s  %s\n",
		"workload", "metric", "A median", "A q1", "A q3", "B median", "B q1", "B q3", "delta", "bound", "verdict")
	worse := 0
	for _, wl := range bf.Workloads {
		for _, d := range bf.EndToEnd {
			a, b := va[wl.Name][d.Name], vb[wl.Name][d.Name]
			v := verdict(a, b, d)
			if v == "worse" {
				worse++
			}
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(w, "%-8s %-18s %s\n", wl.Name, d.Name, v)
				continue
			}
			qa1, qa3 := quartiles(a)
			qb1, qb3 := quartiles(b)
			fmt.Fprintf(w, "%-8s %-18s %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g %+7.1f%% %5.0f%%  %s\n",
				wl.Name, d.Name, median(a), qa1, qa3, median(b), qb1, qb3,
				100*(median(b)-median(a))/median(a), 100*d.Bound, v)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metrics regressed beyond their bound", worse)
	}
	return nil
}

func sortedSeeds(m map[uint64]bool) []uint64 {
	var s []uint64
	for k := range m {
		s = append(s, k)
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}
