package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d identical values out of 100", same)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Fork(1)
	c2 := parent.Fork(2)
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("forked streams with different labels should differ")
	}
	// Forking is deterministic: replay from the same parent state.
	p2 := New(7)
	d1 := p2.Fork(1)
	p2.Fork(2)
	e1 := New(7).Fork(1)
	_ = e1
	r1 := New(7)
	f1 := r1.Fork(1)
	if d1.Uint64() != f1.Uint64() {
		t.Fatal("fork from identical parent state must be identical")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for n := 1; n <= 64; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	r := New(11)
	const n = 10
	const trials = 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(5)
	if r.Bool(0) {
		t.Fatal("Bool(0) must be false")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) must be true")
	}
	trues := 0
	for i := 0; i < 10000; i++ {
		if r.Bool(0.25) {
			trues++
		}
	}
	if trues < 2200 || trues > 2800 {
		t.Fatalf("Bool(0.25) hit %d/10000 times", trues)
	}
}

func TestGeometricMean(t *testing.T) {
	g := NewGeometricSource(New(9), 4)
	const trials = 50000
	sum := 0
	for i := 0; i < trials; i++ {
		v := g.Next()
		if v < 1 {
			t.Fatalf("GeometricSource returned %d < 1", v)
		}
		sum += v
	}
	mean := float64(sum) / trials
	if mean < 3.6 || mean > 4.4 {
		t.Fatalf("GeometricSource(4) sample mean %.2f, want ~4", mean)
	}
}

func TestGeometricDegenerate(t *testing.T) {
	r := New(9)
	g := NewGeometricSource(r, 0.5)
	for i := 0; i < 100; i++ {
		if v := g.Next(); v != 1 {
			t.Fatalf("GeometricSource(m<=1) = %d, want 1", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	f := func(nRaw uint8) bool {
		n := int(nRaw%50) + 1
		dst := make([]int, n)
		r.Perm(dst)
		seen := make([]bool, n)
		for _, v := range dst {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}
