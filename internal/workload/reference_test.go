package workload

// The generator before its per-instruction steps became O(1), kept here
// as the oracle the current one must match instruction for instruction.

import (
	"fmt"
	"math"
	"testing"

	"nucasim/internal/memaddr"
	"nucasim/internal/rng"
)

// referenceInstrs is the total stream length the oracle compares, split
// over every app and seed.
func referenceInstrs() int {
	if testing.Short() || raceEnabled {
		return 2_000_000
	}
	return 100_000_000
}

// TestNextMatchesReference runs every suite app, every parallel app and
// the idle app at two seeds through Next and through the reference in
// lockstep, comparing every Instr and, at the end, the rng position. The
// Next side hops twice into a freshly built generator through
// State/Restore: once while the dependency window is still filling and
// once mid-stream, so the rebuilt producer indexes are checked too.
func TestNextMatchesReference(t *testing.T) {
	apps := append(append(Suite(), ParallelSuite()...), Idle())
	seeds := []uint64{1, 2}
	per := referenceInstrs()/(len(apps)*len(seeds)) + 1
	for _, p := range apps {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", p.Name, seed), func(t *testing.T) {
				t.Parallel()
				got := NewGenerator(p, int(seed), rng.New(seed))
				want := NewGenerator(p, int(seed), rng.New(seed))
				var a, b Instr
				for i := 0; i < per; i++ {
					if i == 10 || i == per/2 {
						s := got.State()
						got = NewGenerator(p, int(seed), rng.New(seed+100))
						if err := got.Restore(s); err != nil {
							t.Fatalf("instr %d: restore: %v", i, err)
						}
					}
					got.Next(&a)
					want.referenceNext(&b)
					if a != b {
						t.Fatalf("instr %d: got %+v, reference %+v", i, a, b)
					}
				}
				if got.r.State() != want.r.State() {
					t.Fatalf("rng position differs after %d instructions", per)
				}
			})
		}
	}
}

// TestPickProducerMatchesReferenceOnSparseRings restores random windows
// in which loads and value producers are rare or absent, at counts below
// and above the window size, and compares pickProducer with the scans it
// replaced. A real stream almost never leaves the nearest load or
// producer at the window's edge; these windows do.
func TestPickProducerMatchesReferenceOnSparseRings(t *testing.T) {
	p := AppParams{
		Name: "sparse", LoadFrac: 0.3, MeanDepDist: 24,
		Layers: []Layer{{Frac: 1, Blocks: 64, Random: true}},
	}
	trials := 200_000
	if testing.Short() || raceEnabled {
		trials = 20_000
	}
	r := rng.New(5)
	got := NewGenerator(p, 0, rng.New(1))
	want := NewGenerator(p, 0, rng.New(1))
	for i := 0; i < trials; i++ {
		s := got.State()
		s.RNG = rng.New(uint64(i)).State()
		s.Count = r.Uint64n(3 * depWindow)
		loads, producers := []float64{0, 0.01, 0.05}[r.Intn(3)], []float64{0, 0.01, 0.05}[r.Intn(3)]
		for k := range s.ClassRing {
			switch u := r.Float64(); {
			case u < loads:
				s.ClassRing[k] = Load
			case u < loads+producers:
				s.ClassRing[k] = Class(r.Intn(int(Load)))
			case u < 0.5+loads+producers:
				s.ClassRing[k] = Store
			default:
				s.ClassRing[k] = Branch
			}
		}
		if err := got.Restore(s); err != nil {
			t.Fatal(err)
		}
		if err := want.Restore(s); err != nil {
			t.Fatal(err)
		}
		got.count++
		want.count++
		chase := i%2 == 0
		if a, b := got.pickProducer(chase, true), want.referencePickProducer(chase); a != b {
			t.Fatalf("trial %d (count %d, chase %v, ring %v): got %d, reference %d", i, got.count, chase, s.ClassRing, a, b)
		}
		if got.r.State() != want.r.State() {
			t.Fatalf("trial %d: rng position differs", i)
		}
	}
}

// referenceNext is Next before the producer indexes, the branch-slot
// table and the Zipf sources.
func (g *Generator) referenceNext(ins *Instr) {
	g.count++
	pc := memaddr.Addr(g.pcIndex * 4).WithSpace(g.space)
	ins.PC = pc
	ins.Addr = 0
	ins.Taken = false
	ins.Target = 0
	ins.Dep1 = 0
	ins.Dep2 = 0

	// Control flow: execution runs in inner loops of loopWindow
	// instructions, lapping each window several times before moving on.
	// Within a window there is one branch slot per chunk of branchEvery
	// instructions, at a chunk-specific offset (real code does not align
	// branches to a fixed stride — a regular stride would alias every
	// site into a handful of BTB sets).
	window := g.windowSize()
	atLoopEnd := g.pcIndex == g.windowStart+window-1
	chunk := g.pcIndex / g.branchEvery
	slotHash := chunk * 0x9e3779b97f4a7c15 >> 33
	atBranchSlot := g.branchEvery < window &&
		g.pcIndex%g.branchEvery == slotHash%g.branchEvery
	if atLoopEnd || atBranchSlot {
		ins.Class = Branch
		if atLoopEnd {
			// Window-closing backward branch: taken back to the top of
			// the loop until this window's trip count is exhausted,
			// then fall through into the next window.
			trips := 4 + (g.windowStart*0x9e3779b97f4a7c15)>>20%13
			g.windowLaps++
			if g.windowLaps < trips {
				ins.Taken = true
				ins.Target = memaddr.Addr(g.windowStart * 4).WithSpace(g.space)
				g.pcIndex = g.windowStart
			} else {
				ins.Taken = false
				ins.Target = memaddr.Addr(g.windowStart * 4).WithSpace(g.space)
				g.windowLaps = 0
				g.windowStart += window
				if g.windowStart+g.windowSize() > g.codeInstrs {
					g.windowStart = 0
				}
				g.pcIndex = g.windowStart
			}
		} else {
			// Forward branch: patterned or data-dependent per site.
			siteHash := g.pcIndex * 0x9e3779b97f4a7c15
			visits := g.siteVisits[chunk]
			g.siteVisits[chunk] = visits + 1
			random := float64(siteHash>>40&0xFFFF)/65536.0 < g.P.RandomBranchFrac
			if random {
				ins.Taken = g.r.Bool(g.P.TakenBias)
			} else {
				// Loop-style site: taken for period-1 iterations, then
				// one exit. The bimodal component captures the strong
				// bias; the interleaving of hundreds of sites keeps the
				// global history noisy, as in real integer code.
				period := uint32(4 + siteHash>>16%29)
				ins.Taken = visits%period != 0
			}
			ins.Target = memaddr.Addr((g.pcIndex + 2) * 4).WithSpace(g.space)
			if ins.Taken {
				g.pcIndex += 2 // skip one instruction
			} else {
				g.pcIndex++
			}
			// Never skip past the window-closing branch.
			if g.pcIndex >= g.windowStart+window {
				g.pcIndex = g.windowStart + window - 1
			}
		}
		ins.Dep1 = g.referencePickProducer(false)
		g.classRing[g.count%depWindow] = Branch
		return
	}
	g.pcIndex++

	// Non-branch classes by mix.
	u := g.r.Float64()
	switch {
	case u < g.P.LoadFrac:
		ins.Class = Load
		ins.Addr = g.referenceDataAddr()
		// The address operand: index arithmetic, or — with probability
		// PointerChase — the value of the most recent load.
		ins.Dep1 = g.referencePickProducer(g.r.Bool(g.P.PointerChase))
	case u < g.P.LoadFrac+g.P.StoreFrac:
		ins.Class = Store
		ins.Addr = g.referenceDataAddr()
		ins.Dep1 = g.referencePickProducer(false) // address operand
		ins.Dep2 = g.referencePickProducer(false) // value operand
	default:
		fp := g.r.Bool(g.P.FPFrac)
		mul := g.r.Bool(g.P.MulFrac)
		switch {
		case fp && mul:
			ins.Class = FPMul
		case fp:
			ins.Class = FPALU
		case mul:
			ins.Class = IntMul
		default:
			ins.Class = IntALU
		}
		ins.Dep1 = g.referencePickProducer(false)
	}
	g.classRing[g.count%depWindow] = ins.Class
}

// referencePickProducer is pickProducer with its scans of the class
// ring. It returns the distance back to this instruction's producer.
// With chase it targets the most recent load (pointer chasing); otherwise
// it draws a geometric distance and walks back to the nearest
// value-producing (ALU/multiply) instruction at or beyond it, so loads and
// branches do not accidentally serialize behind unrelated memory traffic.
func (g *Generator) referencePickProducer(chase bool) int32 {
	if chase {
		for k := uint64(1); k < depWindow && k < g.count; k++ {
			if g.classRing[(g.count-k)%depWindow] == Load {
				return int32(k)
			}
		}
	}
	d := uint64(g.depDist.Next())
	if d >= depWindow {
		return int32(d) // ancient producer: always ready
	}
	for k := d; k < depWindow && k < g.count; k++ {
		switch g.classRing[(g.count-k)%depWindow] {
		case IntALU, IntMul, FPALU, FPMul:
			return int32(k)
		}
	}
	return int32(d)
}

// referenceDataAddr is dataAddr with a modulo per cyclic step and a Zipf
// draw that recomputes its constants.
func (g *Generator) referenceDataAddr() memaddr.Addr {
	u := g.r.Float64() * g.cum[len(g.cum)-1]
	li := 0
	for li < len(g.cum)-1 && u >= g.cum[li] {
		li++
	}
	l := &g.P.Layers[li]
	space := g.space
	if l.Shared {
		space = SharedSpace
	}
	if g.layerLeft[li] > 0 {
		// Spatial locality: revisit the current block.
		g.layerLeft[li]--
		addr := g.layerBase[li] + g.layerBlock[li]*memaddr.BlockSize
		return memaddr.Addr(addr).WithSpace(space)
	}
	var blockIdx uint64
	switch {
	case l.Zipf > 0:
		blockIdx = uint64(referenceZipf(g.r, l.Blocks, l.Zipf))
	case l.Random:
		blockIdx = g.r.Uint64n(uint64(l.Blocks))
	default:
		stride := uint64(l.Stride)
		if stride == 0 {
			stride = 1
		}
		g.layerPos[li] = (g.layerPos[li] + stride) % uint64(l.Blocks)
		blockIdx = g.layerPos[li]
	}
	if l.Repeat > 1 {
		g.layerLeft[li] = l.Repeat - 1
		g.layerBlock[li] = blockIdx
	}
	addr := g.layerBase[li] + blockIdx*memaddr.BlockSize
	return memaddr.Addr(addr).WithSpace(space)
}

// referenceZipf is the per-draw Zipf sampler rng.ZipfSource replaced.
func referenceZipf(r *rng.Rand, n int, s float64) int {
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
