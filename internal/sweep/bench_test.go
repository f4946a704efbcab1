package sweep

import (
	"context"
	"testing"
)

// benchPoints is an 8-point measurement-length study sharing one warmup
// group — the shape where warmup forking pays: warmup dominates short
// runs, and the forked sweep pays for it once instead of 8 times.
func benchPoints(b *testing.B) []Point {
	spec := Spec{
		Base: smallBase(),
		Axes: Axes{MeasureCycles: []uint64{
			5_000, 10_000, 15_000, 20_000, 25_000, 30_000, 35_000, 40_000,
		}},
	}
	points, err := Expand(spec, 0)
	if err != nil {
		b.Fatal(err)
	}
	return points
}

// BenchmarkSweepForked runs the study through RunLocal's shared-warmup
// path: one warmup, 8 forked measurement windows.
func BenchmarkSweepForked(b *testing.B) {
	points := benchPoints(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, st, err := RunLocal(context.Background(), points, LocalOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if st.WarmupsRun != 1 || st.Forked != len(points) {
			b.Fatalf("stats = %+v, want 1 warmup and %d forks", st, len(points))
		}
	}
}

// BenchmarkSweepCold runs the same study with every point end to end —
// what the sweep CLI did before warmup forking, and the baseline the
// BENCH_sweep.json ratio gate holds the forked path against.
func BenchmarkSweepCold(b *testing.B) {
	points := benchPoints(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := range points {
			// Break warmup sharing by running each point as its own
			// single-member plan (cold path).
			_, st, err := RunLocal(context.Background(), points[j:j+1], LocalOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if st.Cold != 1 {
				b.Fatalf("stats = %+v, want 1 cold point", st)
			}
		}
	}
}
