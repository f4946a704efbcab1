// Package workload generates the synthetic instruction streams that stand
// in for the SPEC2000 binaries of the paper's evaluation (the substitution
// is documented in DESIGN.md §2).
//
// Each application is described by AppParams: an instruction mix, an ILP
// profile (dependency distances), branch behaviour, and a *layered address
// model*. Each memory access picks a layer by weight and an address inside
// it:
//
//   - a cyclic layer of B blocks walks its working set with a stride.
//     Because consecutive block numbers map to consecutive cache sets, a
//     cyclic layer of k·4096 blocks presents exactly k distinct,
//     cyclically-reused blocks to every set of a 4096-set L3 — under true
//     LRU it hits with ≥ k ways and thrashes below, which is precisely the
//     way-sensitivity knee of the paper's Figure 3;
//   - a random or Zipf layer scatters accesses over its region (conflict
//     and capacity misses without a sharp knee);
//   - a streaming layer (huge cyclic region) never reuses in time and
//     models cold/compulsory traffic.
//
// Small layers that fit L1/L2 keep traffic away from the L3 and set the
// last-level access intensity that drives the paper's Figure 5
// classification.
package workload

import (
	"fmt"

	"nucasim/internal/memaddr"
	"nucasim/internal/rng"
)

// Class is an instruction class, matching the functional units of Table 1.
type Class uint8

// Instruction classes.
const (
	IntALU Class = iota
	IntMul
	FPALU
	FPMul
	Load
	Store
	Branch
	numClasses
)

func (c Class) String() string {
	switch c {
	case IntALU:
		return "intalu"
	case IntMul:
		return "intmul"
	case FPALU:
		return "fpalu"
	case FPMul:
		return "fpmul"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "branch"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Instr is one dynamic instruction handed to the core model.
type Instr struct {
	Class  Class
	PC     memaddr.Addr // instruction address (space-tagged)
	Addr   memaddr.Addr // data address for Load/Store (space-tagged)
	Taken  bool         // branch outcome
	Target memaddr.Addr // branch destination if taken
	Dep1   int32        // distance (in instructions) back to the first producer; 0 = none
	Dep2   int32        // distance back to the second producer; 0 = none
}

// Layer is one component of an application's memory reference stream.
type Layer struct {
	Frac   float64 // share of memory accesses hitting this layer
	Blocks int     // working-set size in 64-byte blocks
	Stride int     // cyclic walk stride in blocks, 0 = 1 (ignored for Random/Zipf)
	Random bool    // uniform random within the layer
	Zipf   float64 // if > 0, Zipf-skewed random with this exponent
	Repeat int     // consecutive accesses per block before advancing
	// (spatial locality within the 64-byte block; default 1)
	Shared bool // addresses live in SharedSpace, common to all cores
	// (parallel workloads; see parallel.go)
}

// AppParams is a synthetic application model.
type AppParams struct {
	Name      string
	Suite     string // "int" or "fp"
	Intensive bool   // designed last-level-cache-intensity class (Figure 5)

	// Instruction mix (fractions of the dynamic stream; the remainder
	// is plain ALU work split by FPFrac).
	LoadFrac   float64
	StoreFrac  float64
	BranchFrac float64
	FPFrac     float64 // share of non-memory, non-branch work that is FP
	MulFrac    float64 // share of ALU work using the multiplier

	// ILP: mean distance (in dynamic instructions) to the producer of
	// each operand; small = serial, large = parallel. Producers are
	// value-producing instructions (ALU/multiply results) — a load's
	// address normally comes from index arithmetic, so independent loads
	// overlap in the core's MSHRs (memory-level parallelism).
	MeanDepDist float64

	// PointerChase is the probability that a load's address depends on
	// the value of the most recent load — the mcf-style dependence that
	// serializes misses and defeats MLP.
	PointerChase float64

	// Branch behaviour: fraction of branch sites with data-dependent
	// (random) outcomes, and their taken bias. The remaining sites are
	// patterned (loop) branches the 2-level predictor learns.
	RandomBranchFrac float64
	TakenBias        float64

	// CodeBlocks sizes the instruction footprint in 64-byte blocks.
	CodeBlocks int

	// Layers is the data-reference model; Frac values should sum to ~1.
	Layers []Layer
}

// Generator produces the dynamic instruction stream of one application
// instance. It is deterministic given (params, seed) and allocation-free
// per instruction.
type Generator struct {
	P     AppParams
	space int
	r     *rng.Rand

	cum        []float64        // cumulative layer weights
	layerPos   []uint64         // cyclic positions
	layerBase  []uint64         // byte base of each layer's region
	layerStep  []uint64         // cyclic stride reduced modulo the layer size
	layerLeft  []int            // remaining repeats on the current block
	layerBlock []uint64         // current block index (for repeats)
	zipf       []rng.ZipfSource // samplers of the Zipf layers

	codeInstrs  uint64 // instructions in the code region
	pcIndex     uint64 // current position in the code region
	branchEvery uint64 // a branch site every N slots
	// branchSlot has bit pc set when code-region position pc is a
	// forward branch slot (see Next).
	branchSlot []uint64
	count      uint64 // instructions generated

	// Inner-loop structure: execution stays inside a window of the code
	// region for several laps before advancing — real control flow is
	// dominated by hot loops, which is what keeps BTB and I-cache hit
	// rates high despite a large static footprint.
	windowStart uint64
	windowLaps  uint64

	// classRing remembers the classes of the most recent instructions so
	// dependencies can target value-producing instructions. Two indexes
	// over it answer pickProducer without a scan: lastLoad is the count
	// of the most recent Load, and lastProducer[c%depWindow] the count
	// of the latest value producer at or before count c (0 = none). Both
	// are derived from classRing and count, so Restore rebuilds them.
	classRing    [depWindow]Class
	lastLoad     uint64
	lastProducer [depWindow]uint64

	// siteVisits counts per-branch-site executions so patterned sites
	// produce periodic (learnable) outcome sequences.
	siteVisits []uint32

	depDist rng.GeometricSource
}

// depWindow is how far back a dependency may reach; beyond it producers
// have long completed anyway.
const depWindow = 64

// loopWindow is the inner-loop body size in instructions (16 code blocks).
const loopWindow = 256

// dataBase places data regions above the code region.
const dataBase = 1 << 30

// NewGenerator builds a generator for one application instance running in
// the given address space (core). Each instance should get its own forked
// rng so co-scheduled copies of the same app decorrelate — the paper
// fast-forwards each copy by a random 0.5-1.5 G instructions, which we
// model by randomizing the initial layer positions.
func NewGenerator(p AppParams, space int, r *rng.Rand) *Generator {
	if len(p.Layers) == 0 {
		panic("workload: app has no layers: " + p.Name)
	}
	g := &Generator{
		P:          p,
		space:      space,
		r:          r,
		cum:        make([]float64, len(p.Layers)),
		layerPos:   make([]uint64, len(p.Layers)),
		layerBase:  make([]uint64, len(p.Layers)),
		layerStep:  make([]uint64, len(p.Layers)),
		layerLeft:  make([]int, len(p.Layers)),
		layerBlock: make([]uint64, len(p.Layers)),
		zipf:       make([]rng.ZipfSource, len(p.Layers)),
	}
	sum := 0.0
	base := uint64(dataBase)
	for i, l := range p.Layers {
		if l.Blocks <= 0 {
			panic(fmt.Sprintf("workload: %s layer %d has no blocks", p.Name, i))
		}
		if l.Stride < 0 {
			panic(fmt.Sprintf("workload: %s layer %d has a negative stride", p.Name, i))
		}
		sum += l.Frac
		g.cum[i] = sum
		g.layerBase[i] = base
		base += uint64(l.Blocks) * memaddr.BlockSize
		base += 1 << 20 // guard gap between regions
		// Random fast-forward: start each cyclic walk somewhere inside
		// its period.
		g.layerPos[i] = r.Uint64n(uint64(l.Blocks))
		g.layerStep[i] = uint64(max(l.Stride, 1)) % uint64(l.Blocks)
		if l.Zipf > 0 {
			g.zipf[i] = rng.NewZipfSource(r, l.Blocks, l.Zipf)
		}
	}
	if sum <= 0 {
		panic("workload: layer fractions sum to zero: " + p.Name)
	}
	codeBlocks := p.CodeBlocks
	if codeBlocks <= 0 {
		codeBlocks = 256 // 16 KB default code footprint
	}
	g.codeInstrs = uint64(codeBlocks) * memaddr.BlockSize / 4
	be := uint64(1)
	if p.BranchFrac > 0 {
		be = uint64(1 / p.BranchFrac)
		if be == 0 {
			be = 1
		}
	} else {
		be = 1 << 62
	}
	g.branchEvery = be
	g.siteVisits = make([]uint32, g.codeInstrs/be+2)
	// Within a window there is one forward branch slot per chunk of
	// branchEvery instructions, at a chunk-specific offset (real code
	// does not align branches to a fixed stride — a regular stride would
	// alias every site into a handful of BTB sets). A chunk starts at a
	// multiple of be, so its slot is the one pc with pc%be equal to the
	// chunk's hash modulo be.
	g.branchSlot = make([]uint64, (g.codeInstrs+63)/64)
	if be < g.windowSize() {
		for start := uint64(0); start < g.codeInstrs; start += be {
			chunk := start / be
			if pc := start + (chunk*0x9e3779b97f4a7c15>>33)%be; pc < g.codeInstrs {
				g.branchSlot[pc/64] |= 1 << (pc % 64)
			}
		}
	}
	g.depDist = rng.NewGeometricSource(r, p.MeanDepDist)
	return g
}

// Space returns the generator's address-space id.
func (g *Generator) Space() int { return g.space }

// Count returns how many instructions have been generated.
func (g *Generator) Count() uint64 { return g.count }

// Next fills ins with the next dynamic instruction.
func (g *Generator) Next(ins *Instr) {
	g.count++
	pc := memaddr.Addr(g.pcIndex * 4).WithSpace(g.space)
	ins.PC = pc
	ins.Addr = 0
	ins.Taken = false
	ins.Target = 0
	ins.Dep1 = 0
	ins.Dep2 = 0

	// Control flow: execution runs in inner loops of loopWindow
	// instructions, lapping each window several times before moving on,
	// with forward branches at the slots NewGenerator tabulated.
	window := g.windowSize()
	atLoopEnd := g.pcIndex == g.windowStart+window-1
	atBranchSlot := g.branchSlot[g.pcIndex/64]&(1<<(g.pcIndex%64)) != 0
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
			chunk := g.pcIndex / g.branchEvery
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
		ins.Dep1 = g.pickProducer(false)
		g.record(g.count, Branch)
		return
	}
	g.pcIndex++

	// Non-branch classes by mix.
	u := g.r.Float64()
	switch {
	case u < g.P.LoadFrac:
		ins.Class = Load
		ins.Addr = g.dataAddr()
		// The address operand: index arithmetic, or — with probability
		// PointerChase — the value of the most recent load.
		ins.Dep1 = g.pickProducer(g.r.Bool(g.P.PointerChase))
	case u < g.P.LoadFrac+g.P.StoreFrac:
		ins.Class = Store
		ins.Addr = g.dataAddr()
		ins.Dep1 = g.pickProducer(false) // address operand
		ins.Dep2 = g.pickProducer(false) // value operand
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
		ins.Dep1 = g.pickProducer(false)
	}
	g.record(g.count, ins.Class)
}

// record enters the class of instruction number c, the newest one, into
// the dependency window and its indexes.
func (g *Generator) record(c uint64, cl Class) {
	slot := c % depWindow
	g.classRing[slot] = cl
	switch cl {
	case IntALU, IntMul, FPALU, FPMul:
		g.lastProducer[slot] = c
	default:
		g.lastProducer[slot] = g.lastProducer[(c-1)%depWindow]
	}
	if cl == Load {
		g.lastLoad = c
	}
}

// windowSize returns the inner-loop window length, clamped to the code
// region.
func (g *Generator) windowSize() uint64 {
	if g.codeInstrs < loopWindow {
		return g.codeInstrs
	}
	return loopWindow
}

// pickProducer returns the distance back to this instruction's producer.
// With chase it targets the most recent load (pointer chasing); otherwise
// it draws a geometric distance and goes back to the nearest
// value-producing (ALU/multiply) instruction at or beyond it, so loads and
// branches do not accidentally serialize behind unrelated memory traffic.
// A producer must lie inside the dependency window and be a generated
// instruction (k < count); failing that, the chase falls back to the
// geometric draw and the draw stands as drawn.
func (g *Generator) pickProducer(chase bool) int32 {
	if chase {
		if k := g.count - g.lastLoad; k < depWindow && k < g.count {
			return int32(k)
		}
	}
	d := uint64(g.depDist.Next())
	if d >= depWindow || d >= g.count {
		return int32(d) // ancient or before the stream: always ready
	}
	if k := g.count - g.lastProducer[(g.count-d)%depWindow]; k < depWindow && k < g.count {
		return int32(k)
	}
	return int32(d)
}

// dataAddr draws the next data address from the layered model.
func (g *Generator) dataAddr() memaddr.Addr {
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
		blockIdx = uint64(g.zipf[li].Next())
	case l.Random:
		blockIdx = g.r.Uint64n(uint64(l.Blocks))
	default:
		// layerPos < Blocks and layerStep < Blocks, so one subtraction
		// wraps the walk.
		blockIdx = g.layerPos[li] + g.layerStep[li]
		if blockIdx >= uint64(l.Blocks) {
			blockIdx -= uint64(l.Blocks)
		}
		g.layerPos[li] = blockIdx
	}
	if l.Repeat > 1 {
		g.layerLeft[li] = l.Repeat - 1
		g.layerBlock[li] = blockIdx
	}
	addr := g.layerBase[li] + blockIdx*memaddr.BlockSize
	return memaddr.Addr(addr).WithSpace(space)
}
