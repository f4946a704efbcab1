package rng

import (
	"math"
	"testing"
)

// geometricWithDenom is the log-path sampler GeometricSource replaced,
// kept verbatim as its oracle: one Float64 draw through the inverse
// transform.
func geometricWithDenom(r *Rand, logOneMinusP float64) int {
	return geometricOfUniform(r.Float64(), logOneMinusP)
}

func geometricOfUniform(u, logOneMinusP float64) int {
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	n := int(math.Ceil(math.Log(1-u) / logOneMinusP))
	if n < 1 {
		n = 1
	}
	return n
}

// drawOracle is the oracle's answer for the 53-bit draw k.
func drawOracle(k uint64, denom float64) int {
	return geometricOfUniform(float64(k)/(1<<53), denom)
}

// geometricMeans is every distinct MeanDepDist in the workload suite plus
// a mean just above 1 (few, wide steps) and two large ones (long tables).
var geometricMeans = []float64{1.01, 1.6, 2.2, 3.2, 3.5, 4, 5, 7, 8, 9, 10, 12, 20, 64}

// TestGeometricSourceMatchesFormulaRandom compares 10^8 random draws,
// spread over the means, with the oracle drawing from an identically
// seeded stream, and requires both streams to end at the same position.
func TestGeometricSourceMatchesFormulaRandom(t *testing.T) {
	total := 100_000_000
	if testing.Short() || raceEnabled {
		total = 2_000_000
	}
	per := total/len(geometricMeans) + 1
	for i, m := range geometricMeans {
		seed := uint64(1000 + i)
		got, want := New(seed), New(seed)
		g := NewGeometricSource(got, m)
		for n := 0; n < per; n++ {
			a, b := g.Next(), geometricWithDenom(want, g.denom)
			if a != b {
				t.Fatalf("mean %v draw %d: table %d, formula %d", m, n, a, b)
			}
		}
		if got.State() != want.State() {
			t.Fatalf("mean %v: stream position differs after %d draws", m, per)
		}
	}
}

// TestGeometricSourceMatchesFormulaAtThresholds checks every draw within
// 2^16 of each tabulated threshold, and of the table's end, where an
// off-by-one in the table would show.
func TestGeometricSourceMatchesFormulaAtThresholds(t *testing.T) {
	window := uint64(1 << 16)
	if testing.Short() || raceEnabled {
		window = 1 << 10
	}
	for _, m := range geometricMeans {
		g := NewGeometricSource(New(1), m)
		if len(g.thr) == 0 {
			t.Fatalf("mean %v: empty threshold table", m)
		}
		edges := append([]uint64{geoTableEnd}, g.thr...)
		for _, c := range edges {
			lo := uint64(0)
			if c > window {
				lo = c - window
			}
			for k := lo; k <= c+window && k < 1<<geoDrawBits; k++ {
				if a, b := g.sample(k), drawOracle(k, g.denom); a != b {
					t.Fatalf("mean %v draw %#x: table %d, formula %d", m, k, a, b)
				}
			}
		}
	}
}

// TestGeometricSourceTail covers draws past the last threshold (the
// formula fallback), the extremes of the draw range and every bucket
// start.
func TestGeometricSourceTail(t *testing.T) {
	r := New(77)
	for _, m := range geometricMeans {
		g := NewGeometricSource(New(1), m)
		last := g.thr[len(g.thr)-1]
		check := func(k uint64) {
			if a, b := g.sample(k), drawOracle(k, g.denom); a != b {
				t.Fatalf("mean %v draw %#x: table %d, formula %d", m, k, a, b)
			}
		}
		for i := 0; i < 200_000; i++ {
			check(last + r.Uint64n(1<<geoDrawBits-last))
		}
		for k := uint64(0); k < 1<<16; k++ {
			check(k)
			check(1<<geoDrawBits - 1 - k)
		}
		for b := uint64(1); b < 1<<geoBucketBits; b++ {
			check(b<<geoBucketLow - 1)
			check(b << geoBucketLow)
		}
	}
}

// TestGeometricSourceLongTable covers a mean whose table hits
// geoMaxThresholds: draws past the capped table use the formula.
func TestGeometricSourceLongTable(t *testing.T) {
	const m = 1e6
	g := NewGeometricSource(New(1), m)
	if len(g.thr) != geoMaxThresholds {
		t.Fatalf("mean %v: %d thresholds, want the cap %d", m, len(g.thr), geoMaxThresholds)
	}
	check := func(k uint64) {
		if a, b := g.sample(k), drawOracle(k, g.denom); a != b {
			t.Fatalf("mean %v draw %#x: table %d, formula %d", m, k, a, b)
		}
	}
	last := g.thr[len(g.thr)-1]
	for k := last - 1<<12; k <= last+1<<12; k++ {
		check(k)
	}
	r := New(3)
	for i := 0; i < 100_000; i++ {
		check(r.Uint64() >> (64 - geoDrawBits))
		check(r.Uint64n(2 * last))
	}
	for b := uint64(1); b < 1<<geoBucketBits; b++ {
		check(b<<geoBucketLow - 1)
		check(b << geoBucketLow)
	}
}

// TestGeometricSourceUnit: a mean of at most 1 always yields 1 and
// consumes no draw.
func TestGeometricSourceUnit(t *testing.T) {
	for _, m := range []float64{1, 0.5, 0, -3} {
		r := New(5)
		before := r.State()
		g := NewGeometricSource(r, m)
		for i := 0; i < 100; i++ {
			if v := g.Next(); v != 1 {
				t.Fatalf("mean %v: sample %d, want 1", m, v)
			}
		}
		if r.State() != before {
			t.Fatalf("mean %v: unit sampler consumed draws", m)
		}
	}
}

// BenchmarkGeometricSource draws dependency distances at a suite mean;
// make bench-smoke gates it at 0 allocs/op.
func BenchmarkGeometricSource(b *testing.B) {
	g := NewGeometricSource(New(1), 9)
	b.ReportAllocs()
	sum := 0
	for i := 0; i < b.N; i++ {
		sum += g.Next()
	}
	if sum == 0 {
		b.Fatal("no samples")
	}
}

// BenchmarkGeometricFormula is the log-path oracle, for comparison.
func BenchmarkGeometricFormula(b *testing.B) {
	r := New(1)
	denom := math.Log(1 - 1/9.0)
	b.ReportAllocs()
	sum := 0
	for i := 0; i < b.N; i++ {
		sum += geometricWithDenom(r, denom)
	}
	if sum == 0 {
		b.Fatal("no samples")
	}
}
