package rng

import (
	"fmt"
	"math"
	"testing"
)

// zipfFormula is the per-draw sampler ZipfSource replaced, kept verbatim
// as its oracle: it recomputes n^(1-s) and 1/(1-s) on every draw.
func zipfFormula(r *Rand, n int, s float64) int {
	if n <= 1 {
		return 0
	}
	if s == 1 {
		s = 1.0001 // avoid the harmonic special case
	}
	// Continuous inversion: CDF(x) ~ (x^(1-s) - 1) / (n^(1-s) - 1).
	u := r.Float64()
	oneMinusS := 1 - s
	x := math.Pow(u*(math.Pow(float64(n), oneMinusS)-1)+1, 1/oneMinusS)
	i := int(x) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// zipfCases is every distinct (Blocks, Zipf) pair of the workload's
// Suite and ParallelSuite layers, plus the edges: no items, one item
// (no draw consumed), two items, and s = 1 (the harmonic substitute).
var zipfCases = []struct {
	n int
	s float64
}{
	{32768, 1.3}, {65536, 1.1}, {32768, 1.25}, {24576, 1.3},
	{49152, 1.15}, {65536, 1.25}, {1 << 21, 1.02}, {32768, 1.2},
	{0, 1.2}, {1, 1.2}, {2, 1.2}, {4096, 1},
}

// TestZipfSourceMatchesZipf compares 10^7 draws per case with the
// oracle drawing from an identically seeded stream, and requires both
// streams to end at the same position.
func TestZipfSourceMatchesZipf(t *testing.T) {
	per := 10_000_000
	if testing.Short() || raceEnabled {
		per = 100_000
	}
	for i, c := range zipfCases {
		t.Run(fmt.Sprintf("n=%d/s=%v", c.n, c.s), func(t *testing.T) {
			t.Parallel()
			seed := uint64(2000 + i)
			got, want := New(seed), New(seed)
			z := NewZipfSource(got, c.n, c.s)
			for d := 0; d < per; d++ {
				if a, b := z.Next(), zipfFormula(want, c.n, c.s); a != b {
					t.Fatalf("draw %d: source %d, formula %d", d, a, b)
				}
			}
			if got.State() != want.State() {
				t.Fatalf("stream position differs after %d draws", per)
			}
		})
	}
}

func TestZipfSkewAndRange(t *testing.T) {
	r := New(13)
	const n = 100
	z := NewZipfSource(r, n, 1.2)
	counts := make([]int, n)
	for i := 0; i < 100000; i++ {
		v := z.Next()
		if v < 0 || v >= n {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[n-1] {
		t.Fatalf("Zipf not skewed: counts[0]=%d counts[last]=%d", counts[0], counts[n-1])
	}
	one := NewZipfSource(r, 1, 1.2)
	if one.Next() != 0 {
		t.Fatal("Zipf(1) must be 0")
	}
}
