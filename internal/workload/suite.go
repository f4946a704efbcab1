package workload

import "nucasim/internal/rng"

// Working-set sizing constants, in 64-byte blocks, relative to the Table 1
// hierarchy. The L3 organizations in this study (1 MB 4-way private and
// 4 MB 16-way shared) both have 4096 sets, so a cyclic layer of
// k·l3Sets blocks needs exactly k L3 ways per set.
const (
	l3Sets   = 4096
	l1Fits   = 512        // « 64 KB L1
	l2Fits   = 3072       // < 256 KB L2, > L1
	way1     = 1 * l3Sets // 256 KB
	way2     = 2 * l3Sets // 512 KB
	way3     = 3 * l3Sets // 768 KB
	way4     = 4 * l3Sets // 1 MB — exactly a private L3
	way5     = 5 * l3Sets
	way6     = 6 * l3Sets
	way8     = 8 * l3Sets  // 2 MB
	way10    = 10 * l3Sets // 2.5 MB
	streamWS = 1 << 21     // 128 MB: never reused in a window
)

// Suite returns the synthetic models of the SPEC2000 applications used by
// the paper: all 26 minus vortex and sixtrack (simulator compatibility,
// §3), i.e. 24 applications.
//
// The parameters are calibrated to reproduce each application's
// *qualitative* published footprint — its Figure 5 intensity class and,
// for the Figure 3 subjects, the number of L3 ways it needs — not its
// microarchitectural details. See DESIGN.md §2 for the substitution
// argument.
func Suite() []AppParams {
	return []AppParams{
		// ---- SPECint2000 (minus vortex) ----
		{
			// gzip cycles a ~0.75 MB compression window (3 blocks per
			// set, plus streaming interference): "four blocks per set
			// avoid most misses" — the outermost curve of Figure 3 —
			// and a 4-way private L3 serves it perfectly.
			Name: "gzip", Suite: "int", Intensive: true,
			LoadFrac: 0.24, StoreFrac: 0.12, BranchFrac: 0.12,
			MeanDepDist: 5, RandomBranchFrac: 0.12, TakenBias: 0.6,
			Layers: []Layer{
				{Frac: 0.52, Blocks: l1Fits, Random: true},
				{Frac: 0.14, Blocks: way1, Repeat: 4},
				{Frac: 0.26, Blocks: way2, Repeat: 4},
				{Frac: 0.08, Blocks: streamWS, Repeat: 8},
			},
		},
		{
			// vpr's placement graph slightly overflows a private L3
			// (5 ways): it gains from shared capacity.
			Name: "vpr", Suite: "int", Intensive: true,
			LoadFrac: 0.28, StoreFrac: 0.10, BranchFrac: 0.11,
			MeanDepDist: 4, PointerChase: 0.15, RandomBranchFrac: 0.25, TakenBias: 0.5,
			Layers: []Layer{
				{Frac: 0.48, Blocks: l1Fits, Random: true},
				{Frac: 0.14, Blocks: way1, Repeat: 3},
				{Frac: 0.28, Blocks: way8, Zipf: 1.3, Repeat: 2},
				{Frac: 0.10, Blocks: 16 * l3Sets, Random: true},
			},
		},
		{
			// gcc has a large but mostly L2-resident working set;
			// only light L3 traffic.
			Name: "gcc", Suite: "int", Intensive: false,
			LoadFrac: 0.26, StoreFrac: 0.12, BranchFrac: 0.15,
			MeanDepDist: 4, PointerChase: 0.15, RandomBranchFrac: 0.20, TakenBias: 0.55,
			CodeBlocks: 1024,
			Layers: []Layer{
				{Frac: 0.70, Blocks: l1Fits, Random: true},
				{Frac: 0.285, Blocks: 2048, Repeat: 4},
				{Frac: 0.015, Blocks: way2, Repeat: 2},
			},
		},
		{
			// mcf chases pointers through a huge sparse graph: most
			// misses are effectively cold, so one L3 way per set
			// suffices (the innermost curve of Figure 3); very low
			// ILP makes it strongly memory-bound.
			Name: "mcf", Suite: "int", Intensive: true,
			LoadFrac: 0.36, StoreFrac: 0.09, BranchFrac: 0.10,
			MeanDepDist: 1.6, PointerChase: 0.50, RandomBranchFrac: 0.30, TakenBias: 0.5,
			Layers: []Layer{
				{Frac: 0.55, Blocks: l1Fits, Random: true},
				{Frac: 0.25, Blocks: 1536, Random: true},
				{Frac: 0.20, Blocks: streamWS, Random: true},
			},
		},
		{
			// crafty fits in L1/L2 almost entirely: chess search with
			// hot tables, unpredictable branches.
			Name: "crafty", Suite: "int", Intensive: false,
			LoadFrac: 0.28, StoreFrac: 0.08, BranchFrac: 0.13,
			MeanDepDist: 5, RandomBranchFrac: 0.30, TakenBias: 0.5,
			Layers: []Layer{
				{Frac: 0.82, Blocks: l1Fits, Random: true},
				{Frac: 0.172, Blocks: 2048, Random: true},
				{Frac: 0.008, Blocks: way1, Repeat: 2},
			},
		},
		{
			// parser uses a dictionary a few L3 ways wide, with a
			// skewed tail.
			Name: "parser", Suite: "int", Intensive: true,
			LoadFrac: 0.27, StoreFrac: 0.10, BranchFrac: 0.13,
			MeanDepDist: 3.2, PointerChase: 0.20, RandomBranchFrac: 0.22, TakenBias: 0.55,
			Layers: []Layer{
				{Frac: 0.55, Blocks: l1Fits, Random: true},
				{Frac: 0.33, Blocks: way2, Repeat: 3},
				{Frac: 0.12, Blocks: 16 * l3Sets, Zipf: 1.1},
			},
		},
		{
			// eon is tiny: ray tracing over small scenes, nearly all
			// L1 hits, high ILP.
			Name: "eon", Suite: "int", Intensive: false,
			LoadFrac: 0.24, StoreFrac: 0.14, BranchFrac: 0.10,
			FPFrac: 0.4, MeanDepDist: 7, RandomBranchFrac: 0.08, TakenBias: 0.6,
			Layers: []Layer{
				{Frac: 0.92, Blocks: 256, Random: true},
				{Frac: 0.08, Blocks: 1024, Random: true},
			},
		},
		{
			// perlbmk: interpreter with hot dispatch structures;
			// modest L2 traffic only.
			Name: "perlbmk", Suite: "int", Intensive: false,
			LoadFrac: 0.28, StoreFrac: 0.14, BranchFrac: 0.14,
			MeanDepDist: 4, PointerChase: 0.15, RandomBranchFrac: 0.18, TakenBias: 0.55,
			CodeBlocks: 1024,
			Layers: []Layer{
				{Frac: 0.80, Blocks: l1Fits, Random: true},
				{Frac: 0.19, Blocks: 2048, Random: true},
				{Frac: 0.01, Blocks: way1, Repeat: 2},
			},
		},
		{
			// gap: group theory on mostly-resident sets.
			Name: "gap", Suite: "int", Intensive: false,
			LoadFrac: 0.26, StoreFrac: 0.12, BranchFrac: 0.11,
			MeanDepDist: 5, RandomBranchFrac: 0.12, TakenBias: 0.6,
			Layers: []Layer{
				{Frac: 0.72, Blocks: l1Fits, Random: true},
				{Frac: 0.27, Blocks: 2048, Repeat: 4},
				{Frac: 0.01, Blocks: way1, Repeat: 2},
			},
		},
		{
			// bzip2 works block-wise: bursts of L2-sized activity
			// with a modest L3 tail.
			Name: "bzip2", Suite: "int", Intensive: false,
			LoadFrac: 0.25, StoreFrac: 0.12, BranchFrac: 0.12,
			MeanDepDist: 5, RandomBranchFrac: 0.14, TakenBias: 0.6,
			Layers: []Layer{
				{Frac: 0.62, Blocks: 1024, Random: true},
				{Frac: 0.365, Blocks: 2048, Repeat: 4},
				{Frac: 0.015, Blocks: way2, Repeat: 2},
			},
		},
		{
			// twolf: place-and-route over a netlist ~6 L3 ways wide;
			// a classic capacity-hungry citizen (Figure 7).
			Name: "twolf", Suite: "int", Intensive: true,
			LoadFrac: 0.30, StoreFrac: 0.09, BranchFrac: 0.12,
			MeanDepDist: 3.5, PointerChase: 0.20, RandomBranchFrac: 0.25, TakenBias: 0.5,
			Layers: []Layer{
				{Frac: 0.42, Blocks: l1Fits, Random: true},
				{Frac: 0.16, Blocks: way2, Repeat: 3},
				{Frac: 0.32, Blocks: way8, Zipf: 1.25, Repeat: 2},
				{Frac: 0.10, Blocks: 16 * l3Sets, Random: true},
			},
		},
		// ---- SPECfp2000 (minus sixtrack) ----
		{
			// wupwise: dense linear algebra, high ILP, nearly
			// L2-resident — the fast-running app of the §4.3
			// anecdote (IPC ≈ 1.8 under private caches).
			Name: "wupwise", Suite: "fp", Intensive: false,
			LoadFrac: 0.26, StoreFrac: 0.10, BranchFrac: 0.04,
			FPFrac: 0.85, MulFrac: 0.10, MeanDepDist: 12,
			RandomBranchFrac: 0.02, TakenBias: 0.8,
			Layers: []Layer{
				{Frac: 0.75, Blocks: l1Fits, Random: true},
				{Frac: 0.215, Blocks: 2048, Repeat: 6},
				{Frac: 0.035, Blocks: way2, Repeat: 3},
			},
		},
		{
			// swim streams through large grids: intensive but
			// capacity-insensitive.
			Name: "swim", Suite: "fp", Intensive: true,
			LoadFrac: 0.30, StoreFrac: 0.14, BranchFrac: 0.03,
			FPFrac: 0.9, MeanDepDist: 10, RandomBranchFrac: 0.02, TakenBias: 0.9,
			Layers: []Layer{
				{Frac: 0.40, Blocks: 2048, Repeat: 6},
				{Frac: 0.60, Blocks: streamWS, Repeat: 4},
			},
		},
		{
			// mgrid: multigrid sweeps — streaming plus a small
			// resident hierarchy level.
			Name: "mgrid", Suite: "fp", Intensive: true,
			LoadFrac: 0.32, StoreFrac: 0.10, BranchFrac: 0.03,
			FPFrac: 0.9, MeanDepDist: 9, RandomBranchFrac: 0.02, TakenBias: 0.9,
			Layers: []Layer{
				{Frac: 0.28, Blocks: 1024, Random: true},
				{Frac: 0.72, Blocks: streamWS, Repeat: 4},
			},
		},
		{
			// applu: banded solver sweeps, mostly streaming.
			Name: "applu", Suite: "fp", Intensive: true,
			LoadFrac: 0.31, StoreFrac: 0.12, BranchFrac: 0.03,
			FPFrac: 0.9, MulFrac: 0.08, MeanDepDist: 9,
			RandomBranchFrac: 0.02, TakenBias: 0.9,
			Layers: []Layer{
				{Frac: 0.40, Blocks: 2048, Repeat: 6},
				{Frac: 0.60, Blocks: streamWS, Repeat: 4},
			},
		},
		{
			// mesa: software rendering into small buffers.
			Name: "mesa", Suite: "fp", Intensive: false,
			LoadFrac: 0.25, StoreFrac: 0.13, BranchFrac: 0.07,
			FPFrac: 0.6, MeanDepDist: 8, RandomBranchFrac: 0.06, TakenBias: 0.7,
			Layers: []Layer{
				{Frac: 0.86, Blocks: l1Fits, Random: true},
				{Frac: 0.13, Blocks: 1536, Random: true},
				{Frac: 0.01, Blocks: way1, Repeat: 4},
			},
		},
		{
			// galgel: Galerkin FEM with a mid-sized recurring matrix
			// (5 ways): capacity-sensitive.
			Name: "galgel", Suite: "fp", Intensive: true,
			LoadFrac: 0.30, StoreFrac: 0.08, BranchFrac: 0.04,
			FPFrac: 0.9, MulFrac: 0.12, MeanDepDist: 8,
			RandomBranchFrac: 0.03, TakenBias: 0.85,
			Layers: []Layer{
				{Frac: 0.42, Blocks: l1Fits, Random: true},
				{Frac: 0.16, Blocks: way1, Repeat: 3},
				{Frac: 0.32, Blocks: way6, Zipf: 1.3, Repeat: 2},
				{Frac: 0.10, Blocks: 12 * l3Sets, Random: true},
			},
		},
		{
			// art: neural-network training over ~2 MB of weights
			// cycled continuously (8 ways): the paper's strongest
			// capacity beneficiary.
			Name: "art", Suite: "fp", Intensive: true,
			LoadFrac: 0.33, StoreFrac: 0.08, BranchFrac: 0.05,
			FPFrac: 0.85, MeanDepDist: 5, PointerChase: 0.10, RandomBranchFrac: 0.04, TakenBias: 0.8,
			Layers: []Layer{
				{Frac: 0.26, Blocks: l1Fits, Random: true},
				{Frac: 0.20, Blocks: way2, Repeat: 3},
				{Frac: 0.42, Blocks: 12 * l3Sets, Zipf: 1.15, Repeat: 2},
				{Frac: 0.12, Blocks: streamWS, Repeat: 4},
			},
		},
		{
			// equake: sparse matrix-vector products — a stream plus a
			// one-way-resident index structure.
			Name: "equake", Suite: "fp", Intensive: true,
			LoadFrac: 0.34, StoreFrac: 0.08, BranchFrac: 0.05,
			FPFrac: 0.8, MeanDepDist: 4, PointerChase: 0.20, RandomBranchFrac: 0.05, TakenBias: 0.8,
			Layers: []Layer{
				{Frac: 0.45, Blocks: l1Fits, Random: true},
				{Frac: 0.43, Blocks: streamWS, Repeat: 4},
				{Frac: 0.12, Blocks: way1, Repeat: 3},
			},
		},
		{
			// facerec: image templates a few ways wide plus streamed
			// gallery data.
			Name: "facerec", Suite: "fp", Intensive: true,
			LoadFrac: 0.30, StoreFrac: 0.09, BranchFrac: 0.05,
			FPFrac: 0.85, MeanDepDist: 7, RandomBranchFrac: 0.04, TakenBias: 0.8,
			Layers: []Layer{
				{Frac: 0.50, Blocks: 1024, Random: true},
				{Frac: 0.33, Blocks: way2, Repeat: 3},
				{Frac: 0.17, Blocks: streamWS, Repeat: 4},
			},
		},
		{
			// ammp: molecular dynamics over a ~2.5 MB neighbor
			// structure cycled every step: extremely memory-bound
			// (the paper reports IPC ≈ 0.032 under private caches)
			// and the biggest winner from extra capacity.
			Name: "ammp", Suite: "fp", Intensive: true,
			LoadFrac: 0.38, StoreFrac: 0.10, BranchFrac: 0.05,
			FPFrac: 0.8, MeanDepDist: 2.2, PointerChase: 0.35, RandomBranchFrac: 0.06, TakenBias: 0.7,
			Layers: []Layer{
				{Frac: 0.18, Blocks: l1Fits, Random: true},
				{Frac: 0.22, Blocks: way2, Repeat: 2},
				{Frac: 0.42, Blocks: 16 * l3Sets, Zipf: 1.25, Repeat: 2},
				{Frac: 0.18, Blocks: streamWS, Zipf: 1.02},
			},
		},
		{
			// lucas: FFT passes over large arrays — streaming.
			Name: "lucas", Suite: "fp", Intensive: true,
			LoadFrac: 0.29, StoreFrac: 0.13, BranchFrac: 0.03,
			FPFrac: 0.9, MulFrac: 0.15, MeanDepDist: 9,
			RandomBranchFrac: 0.02, TakenBias: 0.9,
			Layers: []Layer{
				{Frac: 0.43, Blocks: 2048, Repeat: 6},
				{Frac: 0.57, Blocks: streamWS, Repeat: 4},
			},
		},
		{
			// fma3d: crash simulation with mostly L2-resident element
			// data.
			Name: "fma3d", Suite: "fp", Intensive: false,
			LoadFrac: 0.28, StoreFrac: 0.12, BranchFrac: 0.06,
			FPFrac: 0.8, MeanDepDist: 7, RandomBranchFrac: 0.05, TakenBias: 0.75,
			Layers: []Layer{
				{Frac: 0.71, Blocks: l1Fits, Random: true},
				{Frac: 0.275, Blocks: 2048, Repeat: 5},
				{Frac: 0.015, Blocks: way1, Repeat: 3},
			},
		},
		{
			// apsi: meteorology kernels, moderate footprint.
			Name: "apsi", Suite: "fp", Intensive: false,
			LoadFrac: 0.28, StoreFrac: 0.11, BranchFrac: 0.05,
			FPFrac: 0.85, MeanDepDist: 8, RandomBranchFrac: 0.04, TakenBias: 0.8,
			Layers: []Layer{
				{Frac: 0.64, Blocks: 1024, Random: true},
				{Frac: 0.34, Blocks: 2048, Repeat: 5},
				{Frac: 0.02, Blocks: way2, Repeat: 3},
			},
		},
	}
}

// Idle returns a synthetic do-nothing program: a tiny compute loop with no
// last-level cache traffic. The Figure 5 classification runs each
// application alongside idle cores so the measured intensity is a property
// of the application, not of bus contention with its co-runners.
func Idle() AppParams {
	return AppParams{
		Name: "idle", Suite: "int", Intensive: false,
		LoadFrac: 0.10, StoreFrac: 0.05, BranchFrac: 0.08,
		MeanDepDist: 10, RandomBranchFrac: 0.02, TakenBias: 0.7,
		Layers: []Layer{{Frac: 1, Blocks: 64, Random: true}},
	}
}

// ByName returns the model for a named application: one of Suite(),
// ParallelSuite() or Idle(). It is the one app lookup, so every program
// a figure runs can be named in a run request.
func ByName(name string) (AppParams, bool) {
	for _, p := range append(append(Suite(), ParallelSuite()...), Idle()) {
		if p.Name == name {
			return p, true
		}
	}
	return AppParams{}, false
}

// Intensive returns the designed last-level-cache-intensive subset (the
// apps with more than ~9 L3 accesses per thousand cycles, Figure 5). The
// measured classification is produced by the Figure 5 experiment; this is
// the design target used to build Figure 6/7 mixes.
func Intensive() []AppParams {
	var out []AppParams
	for _, p := range Suite() {
		if p.Intensive {
			out = append(out, p)
		}
	}
	return out
}

// NonIntensive returns the complement of Intensive.
func NonIntensive() []AppParams {
	var out []AppParams
	for _, p := range Suite() {
		if !p.Intensive {
			out = append(out, p)
		}
	}
	return out
}

// RandomMix draws n applications (with replacement, like the paper's
// random experiment construction — mixes may contain duplicates, e.g. the
// 3×ammp+wupwise case of §4.3) from the pool.
func RandomMix(r *rng.Rand, pool []AppParams, n int) []AppParams {
	if len(pool) == 0 {
		panic("workload: empty mix pool")
	}
	mix := make([]AppParams, n)
	for i := range mix {
		mix[i] = pool[r.Intn(len(pool))]
	}
	return mix
}

// MixNames formats a mix for table labels.
func MixNames(mix []AppParams) string {
	s := ""
	for i, p := range mix {
		if i > 0 {
			s += "+"
		}
		s += p.Name
	}
	return s
}
