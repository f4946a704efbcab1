package workload

// Parallel (shared-memory) workload support — the paper's future work:
// "We do not consider sharing of cache blocks in this paper ... However we
// hypothesize that the new scheme will be effective also for such
// workloads" (§3). A Layer with Shared=true draws addresses from a common
// address space instead of the core's own, so four generator instances of
// the same app model four threads reading one data structure.
//
// Only timing is modelled: the simulator caches tags, not data, so no
// coherence protocol is needed for correctness. Shared layers should be
// read-mostly by construction (threads writing the same blocks would need
// invalidations that this model does not charge for); the parallel suite
// below keeps store traffic on private layers.

// SharedSpace is the address-space id used by Shared layers. It is far
// above any core id, so shared data never aliases private data.
const SharedSpace = 200

// ParallelSuite returns synthetic shared-memory parallel applications.
// Run the same entry on every core (see experiment.ParallelWorkloads):
// each instance is one thread, with its own private working set plus the
// common shared layers.
func ParallelSuite() []AppParams {
	return []AppParams{
		{
			// oceanp: threads sweep a large shared grid (read-mostly)
			// with small private boundary state — capacity-friendly
			// under any organization that keeps one copy.
			Name: "oceanp", Suite: "fp", Intensive: true,
			LoadFrac: 0.30, StoreFrac: 0.08, BranchFrac: 0.04,
			FPFrac: 0.9, MeanDepDist: 9, RandomBranchFrac: 0.02, TakenBias: 0.9,
			Layers: []Layer{
				{Frac: 0.40, Blocks: l1Fits, Random: true},
				{Frac: 0.44, Blocks: way8, Shared: true, Zipf: 1.2, Repeat: 2},
				{Frac: 0.16, Blocks: streamWS, Repeat: 4},
			},
		},
		{
			// fftp: a shared read-only coefficient table that every
			// thread hits hard, plus private butterfly buffers.
			Name: "fftp", Suite: "fp", Intensive: true,
			LoadFrac: 0.32, StoreFrac: 0.10, BranchFrac: 0.03,
			FPFrac: 0.9, MulFrac: 0.2, MeanDepDist: 10,
			RandomBranchFrac: 0.02, TakenBias: 0.9,
			Layers: []Layer{
				{Frac: 0.38, Blocks: l1Fits, Random: true},
				{Frac: 0.34, Blocks: way4, Shared: true, Repeat: 3},
				{Frac: 0.28, Blocks: 2048, Repeat: 4},
			},
		},
		{
			// lup: LU-style factorization — a shared matrix with skewed
			// panel reuse and streaming updates to private partitions.
			Name: "lup", Suite: "fp", Intensive: true,
			LoadFrac: 0.30, StoreFrac: 0.12, BranchFrac: 0.04,
			FPFrac: 0.85, MulFrac: 0.15, MeanDepDist: 8,
			RandomBranchFrac: 0.03, TakenBias: 0.85,
			Layers: []Layer{
				{Frac: 0.36, Blocks: l1Fits, Random: true},
				{Frac: 0.36, Blocks: way6, Shared: true, Zipf: 1.3, Repeat: 2},
				{Frac: 0.28, Blocks: streamWS, Repeat: 4},
			},
		},
	}
}
