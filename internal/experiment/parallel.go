package experiment

import (
	"fmt"

	"nucasim/internal/sim"
	"nucasim/internal/stats"
	"nucasim/internal/sweep"
	"nucasim/internal/workload"
)

// ParallelResult carries the future-work study on shared-memory parallel
// workloads.
type ParallelResult struct {
	Table *stats.Table
	// AdaptiveVsPrivate is the average harmonic-IPC speedup of the
	// adaptive scheme over private caches across the parallel apps.
	AdaptiveVsPrivate float64
	// SharedVsPrivate is the same for the monolithic shared cache.
	SharedVsPrivate float64
}

// ParallelWorkloads tests the paper's §3 hypothesis — "the new scheme
// will be effective also for such [parallel] workloads" — by running each
// synthetic parallel application with one thread per core. Private caches
// replicate the shared data per core (each private L3 fetches its own
// copy); the shared cache and the adaptive scheme keep a single copy that
// every thread hits, so both should beat private, with the adaptive
// scheme additionally protecting each thread's private state.
func ParallelWorkloads(opt Options) ParallelResult {
	opt = opt.withDefaults()
	var mixes [][]workload.AppParams
	for _, p := range workload.ParallelSuite() {
		mix := make([]workload.AppParams, opt.Cores)
		for c := range mix {
			mix[c] = p // one thread per core
		}
		mixes = append(mixes, mix)
	}
	results := opt.run(opt.specs(sweep.Base{}, mixes, sim.SchemePrivate, sim.SchemeShared, sim.SchemeAdaptive))
	t := stats.NewTable("Parallel workloads (§3 future work): harmonic IPC",
		"private", "shared", "adaptive", "adaptive/private")
	var aAcc, sAcc stats.Accumulator
	for i, r := range results {
		sp := stats.Speedup(r[2].HarmonicIPC, r[0].HarmonicIPC)
		t.AddRow(fmt.Sprintf("%s x%d", mixes[i][0].Name, opt.Cores),
			r[0].HarmonicIPC, r[1].HarmonicIPC, r[2].HarmonicIPC, sp)
		aAcc.Add(sp)
		sAcc.Add(stats.Speedup(r[1].HarmonicIPC, r[0].HarmonicIPC))
	}
	return ParallelResult{
		Table:             t,
		AdaptiveVsPrivate: aAcc.Mean(),
		SharedVsPrivate:   sAcc.Mean(),
	}
}
