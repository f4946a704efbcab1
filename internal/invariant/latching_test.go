package invariant_test

import (
	"testing"

	"nucasim/internal/core"
	"nucasim/internal/dram"
	"nucasim/internal/invariant"
	"nucasim/internal/memaddr"
	"nucasim/internal/rng"
)

// Geometry mirrors the fault-injection harness: small enough that a few
// thousand accesses populate every structure, with a short period so
// repartition evaluations (the checkpoints this test asserts at) come
// thick and fast.
const (
	cores  = 4
	ways   = 4
	sets   = 64
	period = 200
)

func newAdaptive(t *testing.T) *core.Adaptive {
	t.Helper()
	return core.NewAdaptive(core.Config{
		Cores:             cores,
		BytesPerCore:      sets * ways * 64,
		LocalWays:         ways,
		RepartitionPeriod: period,
	}, dram.New(dram.PrivateConfig()))
}

// drive issues n accesses. Core hot gets a footprint four times the
// cache; the other cores reuse a small working set that fits, so the
// controller sees one clear capacity hog per phase and moves limits
// toward it.
func drive(a *core.Adaptive, r *rng.Rand, now *uint64, n int, hot int) {
	for i := 0; i < n; i++ {
		c := int(r.Uint64n(cores))
		span := uint64(sets * ways / 2)
		if c == hot {
			span = sets * ways * 4
		}
		addr := memaddr.Addr(r.Uint64n(span) << 6).WithSpace(c)
		*now += 4
		a.Access(c, addr, r.Uint64n(8) == 0, *now)
	}
}

// TestLatchedLimitsStayInvariant pins the ROADMAP observation that the
// partition limits latch into asymmetric states like [5 5 1 1] and stay
// structurally legal there: the latched state itself satisfies every
// invariant, and a phase-changing run that pushes capacity pressure from
// one pair of cores to the other keeps the limit sum conserved and every
// limit in bounds at every single repartition evaluation.
func TestLatchedLimitsStayInvariant(t *testing.T) {
	a := newAdaptive(t)

	// The latched state from ROADMAP: [5 5 1 1]. Sum 12 = 4×3 conserves
	// the initial budget; bounds are [1, 13] for 16 total ways.
	if err := a.InjectLimits([]int{5, 5, 1, 1}); err != nil {
		t.Fatalf("InjectLimits([5 5 1 1]): %v", err)
	}
	if err := invariant.Check(a); err != nil {
		t.Fatalf("latched limits [5 5 1 1] violate an invariant: %v", err)
	}

	wantSum := a.InitialLimit() * cores
	upper := a.TotalWays() - (cores - 1)
	epochs := 0
	a.OnRepartition = func(limits []int, transferred bool) {
		epochs++
		sum := 0
		for c, m := range limits {
			if m < 1 || m > upper {
				t.Fatalf("epoch %d: core %d limit %d outside [1,%d] (limits %v)", epochs, c, m, upper, limits)
			}
			sum += m
		}
		if sum != wantSum {
			t.Fatalf("epoch %d: limits %v sum to %d, want %d", epochs, limits, sum, wantSum)
		}
		if err := invariant.Check(a); err != nil {
			t.Fatalf("epoch %d (limits %v): %v", epochs, limits, err)
		}
	}

	// Phase 1: core 0 is the capacity hog. Phase 2: pressure jumps to
	// core 3, forcing the controller to unwind and re-latch.
	r := rng.New(11)
	var now uint64 = 1
	drive(a, r, &now, 40_000, 0)
	phase1 := a.MaxBlocks()
	drive(a, r, &now, 40_000, 3)
	phase2 := a.MaxBlocks()

	if epochs == 0 {
		t.Fatal("run completed without a single repartition evaluation")
	}
	if err := invariant.Check(a); err != nil {
		t.Fatalf("final state: %v", err)
	}
	t.Logf("%d epochs; limits after phase 1 %v, after phase 2 %v", epochs, phase1, phase2)
}

// TestInjectLimitsRejectsIllegal locks the guard rails on the injection
// hook itself: wrong arity, out-of-bounds entries and a broken sum must
// all be refused, and a refused injection must leave the limits intact.
func TestInjectLimitsRejectsIllegal(t *testing.T) {
	a := newAdaptive(t)
	before := a.MaxBlocks()
	for _, bad := range [][]int{
		{3, 3, 3},     // wrong core count
		{0, 4, 4, 4},  // below the 1-block floor
		{14, 1, 1, 1}, // above the upper bound assoc·cores−(cores−1)=13
		{4, 4, 4, 4},  // sum 16 breaks conservation of 12
	} {
		if err := a.InjectLimits(bad); err == nil {
			t.Errorf("InjectLimits(%v) accepted an illegal assignment", bad)
		}
	}
	after := a.MaxBlocks()
	for c := range before {
		if before[c] != after[c] {
			t.Fatalf("rejected injections mutated limits: %v -> %v", before, after)
		}
	}
	if err := invariant.Check(a); err != nil {
		t.Fatalf("state after rejected injections: %v", err)
	}
}
