package main

import (
	"reflect"
	"strings"
	"testing"
)

const sweepBench = `goos: linux
BenchmarkSweepForked-2   	      12	  90000000 ns/op	18748607 B/op	    2916 allocs/op
BenchmarkSweepCold-2     	       5	 206000000 ns/op	15986459 B/op	    3274 allocs/op
BenchmarkNoMem-2         	       5	 100000000 ns/op
`

// TestCheckRatio pins the ratio gates: ns/op by default, allocs/op with
// the ":allocs" suffix and B/op with ":bytes", each recorded under its
// spec's name.
func TestCheckRatio(t *testing.T) {
	rec, err := parse(strings.NewReader(sweepBench))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec, key string
		ratio     float64
		err       string
	}{
		{spec: "BenchmarkSweepForked/BenchmarkSweepCold=0.6", key: "BenchmarkSweepForked/BenchmarkSweepCold", ratio: 90.0 / 206},
		{spec: "BenchmarkSweepForked/BenchmarkSweepCold:allocs=1", key: "BenchmarkSweepForked/BenchmarkSweepCold:allocs", ratio: 2916.0 / 3274},
		{spec: "BenchmarkSweepCold/BenchmarkSweepForked:allocs=1", err: "allocs/op"},
		{spec: "BenchmarkSweepCold/BenchmarkSweepForked=3", key: "BenchmarkSweepCold/BenchmarkSweepForked", ratio: 206.0 / 90},
		{spec: "BenchmarkSweepForked/BenchmarkSweepCold:bytes=1.2", key: "BenchmarkSweepForked/BenchmarkSweepCold:bytes", ratio: 18748607.0 / 15986459},
		{spec: "BenchmarkSweepForked/BenchmarkSweepCold:bytes=1", err: "B/op"},
		{spec: "BenchmarkNoMem/BenchmarkSweepCold:bytes=1", err: "lacked -benchmem"},
		{spec: "BenchmarkSweepForked/BenchmarkSweepCold:widgets=1", err: "bad spec"},
		{spec: "BenchmarkSweepForked/BenchmarkSweepCold:=1", err: "bad spec"},
		{spec: "BenchmarkNoMem/BenchmarkSweepCold:allocs=1", err: "lacked -benchmem"},
		{spec: "BenchmarkSweepForked/BenchmarkMissing=1", err: "not found"},
	} {
		key, ratio, err := checkRatio(rec.Benchmarks, tc.spec)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: err = %v, want %q", tc.spec, err, tc.err)
			}
			continue
		}
		if err != nil || key != tc.key || ratio-tc.ratio > 1e-9 || tc.ratio-ratio > 1e-9 {
			t.Errorf("%s = %q, %g, %v; want %q, %g", tc.spec, key, ratio, err, tc.key, tc.ratio)
		}
	}
}

// TestParseNamesEachPackage pins that every benchmark carries the
// package of the `pkg:` block it was printed in, and that same-named
// benchmarks of two packages stay two records.
func TestParseNamesEachPackage(t *testing.T) {
	const in = `goos: linux
pkg: nucasim/internal/sim
BenchmarkEncodeResult-2   	     100	   1000000 ns/op
BenchmarkShared-2         	      10	       100 ns/op
BenchmarkShared-2         	      10	       300 ns/op
PASS
pkg: nucasim/internal/serve
BenchmarkServeSubmit-2    	    1000	     50000 ns/op
BenchmarkShared-2         	      10	       900 ns/op
`
	rec, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		pkg, name string
		runs      int
		ns        float64
	}
	want := []row{
		{"nucasim/internal/sim", "BenchmarkEncodeResult", 1, 1000000},
		{"nucasim/internal/sim", "BenchmarkShared", 2, 200},
		{"nucasim/internal/serve", "BenchmarkServeSubmit", 1, 50000},
		{"nucasim/internal/serve", "BenchmarkShared", 1, 900},
	}
	var got []row
	for _, b := range rec.Benchmarks {
		got = append(got, row{b.Pkg, b.Name, b.Runs, b.NsPerOp})
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed\n%v\nwant\n%v", got, want)
	}
}
