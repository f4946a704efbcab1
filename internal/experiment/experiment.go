// Package experiment regenerates every table and figure of the paper's
// evaluation (Sections 3-4). Each Fig* function lists the run requests
// its figure needs — one sweep.Spec per mix, with the compared schemes
// on the Scheme axis — runs them through the sweep engine
// (sweep.RunLocal), and aggregates the results into a stats.Table whose
// rows/series mirror what the paper plots; cmd/experiments prints them
// and EXPERIMENTS.md records the paper-vs-measured comparison.
//
// The experiments are statistical: the paper builds workloads by drawing
// four random applications per experiment and fast-forwarding each by a
// random amount (§3). Options.Seed pins the whole procedure, so every
// figure is exactly reproducible.
package experiment

import (
	"context"
	"fmt"

	"nucasim/internal/cache"
	"nucasim/internal/memaddr"
	"nucasim/internal/rng"
	"nucasim/internal/sim"
	"nucasim/internal/stats"
	"nucasim/internal/sweep"
	"nucasim/internal/telemetry"
	"nucasim/internal/workload"
)

// Options sizes an experiment run. The zero value gives laptop-scale runs
// (a few minutes per figure); raise the window fields toward the paper's
// 200 M cycles for publication-scale runs.
type Options struct {
	Seed  uint64
	Mixes int // random 4-app experiments per figure (default 8)

	WarmupInstructions uint64 // default 1_000_000 per core
	WarmupCycles       uint64 // default 100_000
	MeasureCycles      uint64 // default 600_000

	// Cores overrides the CMP width (default 4, the paper's machine).
	Cores int

	// Run is how each figure's points execute: invariant checking and
	// the telemetry of each run, one per fork group, which Attach wires
	// from the group's longest point (cmd/experiments
	// -check-invariants, -trace-out, -span-out). A figure reads no
	// telemetry, so without an Attach its points run with none.
	Run sweep.LocalOptions
}

func (o Options) withDefaults() Options {
	if o.Mixes == 0 {
		o.Mixes = 8
	}
	if o.WarmupInstructions == 0 {
		o.WarmupInstructions = 1_000_000
	}
	if o.WarmupCycles == 0 {
		o.WarmupCycles = 100_000
	}
	if o.MeasureCycles == 0 {
		o.MeasureCycles = 600_000
	}
	if o.Cores == 0 {
		o.Cores = 4
	}
	return o
}

// draw reproduces the paper's experiment construction: Mixes draws of
// `cores` random applications (with replacement) from the pool.
func (o Options) draw(pool []workload.AppParams, cores int) [][]workload.AppParams {
	r := rng.New(o.Seed)
	mixes := make([][]workload.AppParams, o.Mixes)
	for i := range mixes {
		mixes[i] = workload.RandomMix(r, pool, cores)
	}
	return mixes
}

// spec is the run request of one mix at one seed under the compared
// schemes. fixed carries the figure's fixed fields (Scaled,
// L3BytesPerCore, ShadowSampleShift); the mix, seed and window sizes
// are filled in here.
func (o Options) spec(fixed sweep.Base, mix []workload.AppParams, seed uint64, schemes ...sim.Scheme) sweep.Spec {
	b := fixed
	for _, p := range mix {
		b.Apps = append(b.Apps, p.Name)
	}
	b.Seed = seed
	b.WarmupInstructions, b.WarmupCycles, b.MeasureCycles = o.WarmupInstructions, o.WarmupCycles, o.MeasureCycles
	s := sweep.Spec{Base: b}
	for _, sc := range schemes {
		s.Axes.Scheme = append(s.Axes.Scheme, string(sc))
	}
	return s
}

// mixSeed is the run seed of a figure's i-th mix.
func (o Options) mixSeed(i int) uint64 { return o.Seed + uint64(i)*101 }

// specs is one spec per mix, mix i at seed mixSeed(i).
func (o Options) specs(fixed sweep.Base, mixes [][]workload.AppParams, schemes ...sim.Scheme) []sweep.Spec {
	out := make([]sweep.Spec, len(mixes))
	for i, mix := range mixes {
		out[i] = o.spec(fixed, mix, o.mixSeed(i), schemes...)
	}
	return out
}

// run expands every spec and runs all their points in one
// sweep.RunLocal call. results[i][j] is spec i's j-th point (its j-th
// scheme). Figures have no error path, so a failed point panics.
func (o Options) run(specs []sweep.Spec) [][]sim.Result {
	if o.Run.Attach == nil {
		o.Run.Attach = func(sweep.Point) *telemetry.Config { return nil }
	}
	var points []sweep.Point
	counts := make([]int, len(specs))
	for i, s := range specs {
		ps, err := sweep.Expand(s, 0)
		if err != nil {
			panic(err)
		}
		points = append(points, ps...)
		counts[i] = len(ps)
	}
	flat, _, err := sweep.RunLocal(context.TODO(), points, o.Run)
	if err != nil {
		panic(err)
	}
	results := make([][]sim.Result, len(specs))
	for i, n := range counts {
		results[i], flat = flat[:n], flat[n:]
	}
	return results
}

// Fig3 reproduces Figure 3: the number of L3 misses as a function of
// blocks per set (associativity at a fixed 4096 sets), for five
// applications. The reference streams are filtered through Table 1 L1/L2
// caches exactly as an L3 would see them. Values are misses per thousand
// post-L2 accesses.
func Fig3(opt Options) *stats.Table {
	opt = opt.withDefaults()
	apps := []string{"mcf", "parser", "twolf", "vpr", "gzip"}
	ways := []int{1, 2, 3, 4, 5, 6, 8, 10, 12, 16}
	cols := make([]string, len(ways))
	for i, w := range ways {
		cols[i] = fmt.Sprintf("%d-way", w)
	}
	t := stats.NewTable("Figure 3: L3 misses vs blocks per set (misses per 1000 L3 accesses)", cols...)
	for _, name := range apps {
		p, ok := workload.ByName(name)
		if !ok {
			panic("experiment: unknown app " + name)
		}
		row := make([]float64, len(ways))
		for i, w := range ways {
			row[i] = missRatioAtWays(p, w, opt.Seed) * 1000
		}
		t.AddRow(name, row...)
	}
	return t
}

// missRatioAtWays replays one app's data stream through Table 1 L1D/L2D
// filters into an isolated 4096-set probe cache at the given
// associativity — the Figure 3 measurement.
func missRatioAtWays(p workload.AppParams, ways int, seed uint64) float64 {
	g := workload.NewGenerator(p, 0, rng.New(seed+0xF16))
	l1 := cache.New("l1", memaddr.NewGeometry(64<<10, 2))
	l2 := cache.New("l2", memaddr.NewGeometry(256<<10, 4))
	probe := cache.New("probe", memaddr.NewGeometrySets(4096, ways))
	var ins workload.Instr
	for phase := 0; phase < 2; phase++ {
		probe.Stats = cache.Stats{}
		for i := 0; i < 600_000; i++ {
			g.Next(&ins)
			if ins.Class != workload.Load && ins.Class != workload.Store {
				continue
			}
			if hit, _ := l1.Access(ins.Addr, false); hit {
				continue
			}
			l1.Install(ins.Addr, false, 0)
			if hit, _ := l2.Access(ins.Addr, false); hit {
				continue
			}
			l2.Install(ins.Addr, false, 0)
			if hit, _ := probe.Access(ins.Addr, false); !hit {
				probe.Install(ins.Addr, false, 0)
			}
		}
	}
	if probe.Stats.Accesses == 0 {
		return 0
	}
	return float64(probe.Stats.Misses) / float64(probe.Stats.Accesses)
}

// Fig5 reproduces Figure 5: each application's last-level cache accesses
// per thousand cycles (its L2 data misses), measured under the private
// baseline with the application on core 0 and idle programs on the other
// cores (the classification is a property of the application, not of bus
// contention). Applications above the threshold (9 per 1000 cycles) are
// classified last-level cache intensive.
func Fig5(opt Options) *stats.Table {
	opt = opt.withDefaults()
	suite := workload.Suite()
	specs := make([]sweep.Spec, len(suite))
	for i, p := range suite {
		mix := []workload.AppParams{p}
		for len(mix) < opt.Cores {
			mix = append(mix, workload.Idle())
		}
		specs[i] = opt.spec(sweep.Base{}, mix, opt.Seed, sim.SchemePrivate)
	}
	t := stats.NewTable(fmt.Sprintf("Figure 5: L3 accesses per 1000 cycles (intensive if > %.0f)", IntensiveThreshold),
		"acc/kcycle", "intensive")
	for i, r := range opt.run(specs) {
		acc := r[0].LLCAccessesPerKCycle[0]
		intensive := 0.0
		if acc > IntensiveThreshold {
			intensive = 1
		}
		t.AddRow(suite[i].Name, acc, intensive)
	}
	return t
}

// IntensiveThreshold is the Figure 5 classification threshold, the
// paper's §4.1 criterion: more than nine last-level cache accesses per
// thousand cycles. The measured distribution is strongly bimodal
// (non-intensive apps below 5, intensive above 18; see EXPERIMENTS.md),
// so the classification is insensitive to the exact cutoff.
const IntensiveThreshold = 9.0

// Fig6Result carries the Figure 6 table plus the paper's headline
// aggregates (§4.2: +21 % harmonic / +13 % mean vs private; +2 % harmonic
// / +5 % mean vs shared).
type Fig6Result struct {
	Table *stats.Table

	HarmonicGainVsPrivatePct float64
	MeanGainVsPrivatePct     float64
	HarmonicGainVsSharedPct  float64
	MeanGainVsSharedPct      float64
}

// Fig6 reproduces Figure 6: the harmonic mean of per-core IPC for each
// random 4-app experiment drawn from the LLC-intensive pool, under
// private, shared, and the adaptive scheme, sorted by the adaptive
// scheme's speedup over private.
func Fig6(opt Options) Fig6Result {
	opt = opt.withDefaults()
	mixes := opt.draw(workload.Intensive(), opt.Cores)
	results := opt.run(opt.specs(sweep.Base{}, mixes, sim.SchemePrivate, sim.SchemeShared, sim.SchemeAdaptive))
	t := stats.NewTable("Figure 6: harmonic mean IPC per experiment (intensive apps)",
		"private", "shared", "adaptive", "adaptive/private")
	var hm, mean [3]stats.Accumulator // private, shared, adaptive
	for i, r := range results {
		t.AddRow(workload.MixNames(mixes[i]),
			r[0].HarmonicIPC, r[1].HarmonicIPC, r[2].HarmonicIPC,
			stats.Speedup(r[2].HarmonicIPC, r[0].HarmonicIPC))
		for j := range hm {
			hm[j].Add(r[j].HarmonicIPC)
			mean[j].Add(r[j].MeanIPC)
		}
	}
	t.SortByColumn(3)
	return Fig6Result{
		Table:                    t,
		HarmonicGainVsPrivatePct: stats.PercentGain(hm[2].Mean(), hm[0].Mean()),
		MeanGainVsPrivatePct:     stats.PercentGain(mean[2].Mean(), mean[0].Mean()),
		HarmonicGainVsSharedPct:  stats.PercentGain(hm[2].Mean(), hm[1].Mean()),
		MeanGainVsSharedPct:      stats.PercentGain(mean[2].Mean(), mean[1].Mean()),
	}
}

// perAppSpeedups runs the Figures 7-9 experiment: mixes drawn from pool
// under private, shared, adaptive and 4×-sized private caches (fixed
// carries the figure's L3 capacity), tabulating each application's mean
// per-core IPC speedup over private under the other three.
func perAppSpeedups(opt Options, title string, pool []workload.AppParams, fixed sweep.Base) *stats.Table {
	opt = opt.withDefaults()
	schemes := []sim.Scheme{sim.SchemePrivate, sim.SchemeShared, sim.SchemeAdaptive, sim.SchemePrivate4x}
	mixes := opt.draw(pool, opt.Cores)
	acc := map[string]*[3]stats.Accumulator{}
	for i, r := range opt.run(opt.specs(fixed, mixes, schemes...)) {
		for core, app := range mixes[i] {
			a := acc[app.Name]
			if a == nil {
				a = &[3]stats.Accumulator{}
				acc[app.Name] = a
			}
			for j := range a {
				a[j].Add(stats.Speedup(r[j+1].PerCoreIPC[core], r[0].PerCoreIPC[core]))
			}
		}
	}
	cols := []string{}
	for _, s := range schemes[1:] {
		cols = append(cols, string(s))
	}
	t := stats.NewTable(title, append(cols, "samples")...)
	for _, p := range pool {
		a, ok := acc[p.Name]
		if !ok {
			continue // app never drawn into a mix
		}
		t.AddRow(p.Name, a[0].Mean(), a[1].Mean(), a[2].Mean(), float64(a[0].N()))
	}
	return t
}

// Fig7 reproduces Figure 7: per-application speedup over private caches
// for shared, adaptive and 4×-sized private caches, for the LLC-intensive
// applications (mixes drawn from the intensive pool).
func Fig7(opt Options) *stats.Table {
	return perAppSpeedups(opt, "Figure 7: speedup vs private (LLC-intensive apps)",
		workload.Intensive(), sweep.Base{})
}

// Fig8 reproduces Figure 8: per-application speedups over private caches
// with mixes drawn from the full suite (both categories).
func Fig8(opt Options) *stats.Table {
	return perAppSpeedups(opt, "Figure 8: speedup vs private (all apps)",
		workload.Suite(), sweep.Base{})
}

// Fig9 reproduces Figure 9: the Figure 7 experiment with a doubled
// last-level cache (8 MB aggregate — 2 MB private partitions), where the
// adaptive scheme's constraints can hurt because capacity is ample.
func Fig9(opt Options) *stats.Table {
	return perAppSpeedups(opt, "Figure 9: speedup vs private with 8 MB L3 (2 MB per core)",
		workload.Intensive(), sweep.Base{L3BytesPerCore: 2 << 20})
}

// Fig10Result carries the Figure 10 table and the per-scheme average
// harmonic-IPC speedups over private under scaled technology.
type Fig10Result struct {
	Table       *stats.Table
	AvgShared   float64
	AvgAdaptive float64
}

// Fig10 reproduces Figure 10: the impact of technology scaling (§4.5).
// All latencies grow per Table 1's scaled column; each experiment reports
// harmonic-IPC speedups of shared and adaptive over private at the scaled
// technology. The paper's claim: the adaptive scheme has the highest
// average gain because it removes the most (now slower) memory accesses.
func Fig10(opt Options) Fig10Result {
	opt = opt.withDefaults()
	mixes := opt.draw(workload.Intensive(), opt.Cores)
	results := opt.run(opt.specs(sweep.Base{Scaled: true}, mixes, sim.SchemePrivate, sim.SchemeShared, sim.SchemeAdaptive))
	t := stats.NewTable("Figure 10: technology scaling — harmonic IPC speedup vs private (scaled latencies)",
		"shared", "adaptive")
	var sAcc, aAcc stats.Accumulator
	for i, r := range results {
		s := stats.Speedup(r[1].HarmonicIPC, r[0].HarmonicIPC)
		a := stats.Speedup(r[2].HarmonicIPC, r[0].HarmonicIPC)
		t.AddRow(workload.MixNames(mixes[i]), s, a)
		sAcc.Add(s)
		aAcc.Add(a)
	}
	t.AddRow("average", sAcc.Mean(), aAcc.Mean())
	return Fig10Result{Table: t, AvgShared: sAcc.Mean(), AvgAdaptive: aAcc.Mean()}
}

// Fig11 reproduces Figure 11: the adaptive scheme's harmonic-IPC speedup
// over the Chang & Sohi-style "random replacement" baseline on
// LLC-intensive mixes, where controlled sharing should win clearly.
func Fig11(opt Options) *stats.Table {
	return adaptiveVsCoop(opt.withDefaults(),
		"Figure 11: adaptive vs random replacement (intensive apps)",
		workload.Intensive())
}

// Fig12 reproduces Figure 12: the same comparison with mixes drawn from
// both categories, where many apps ignore the L3 and the two schemes come
// out close.
func Fig12(opt Options) *stats.Table {
	return adaptiveVsCoop(opt.withDefaults(),
		"Figure 12: adaptive vs random replacement (all apps)",
		workload.Suite())
}

func adaptiveVsCoop(opt Options, title string, pool []workload.AppParams) *stats.Table {
	mixes := opt.draw(pool, opt.Cores)
	results := opt.run(opt.specs(sweep.Base{}, mixes, sim.SchemeCoop, sim.SchemeAdaptive))
	t := stats.NewTable(title, "coop", "adaptive", "adaptive/coop")
	var rel, coopAcc, adaptAcc stats.Accumulator
	for i, r := range results {
		sp := stats.Speedup(r[1].HarmonicIPC, r[0].HarmonicIPC)
		t.AddRow(workload.MixNames(mixes[i]), r[0].HarmonicIPC, r[1].HarmonicIPC, sp)
		rel.Add(sp)
		coopAcc.Add(r[0].HarmonicIPC)
		adaptAcc.Add(r[1].HarmonicIPC)
	}
	t.SortByColumn(2)
	t.AddRow("average", coopAcc.Mean(), adaptAcc.Mean(), rel.Mean())
	return t
}

// SamplingResult compares full shadow tags against 1/16 sampling (§4.6).
type SamplingResult struct {
	Table               *stats.Table
	MeanIPCDeltaPct     float64 // paper: +0.1 %
	HarmonicIPCDeltaPct float64 // paper: -0.1 %
}

// ShadowSampling reproduces §4.6: the adaptive scheme with shadow tags in
// every set versus only the 1/16 of sets with the lowest index. The two
// arms differ in a field no sweep axis covers, so each mix gets one spec
// per arm.
func ShadowSampling(opt Options) SamplingResult {
	opt = opt.withDefaults()
	mixes := opt.draw(workload.Intensive(), opt.Cores)
	var specs []sweep.Spec
	for i, mix := range mixes {
		specs = append(specs,
			opt.spec(sweep.Base{}, mix, opt.mixSeed(i), sim.SchemeAdaptive),
			opt.spec(sweep.Base{ShadowSampleShift: 4}, mix, opt.mixSeed(i), sim.SchemeAdaptive))
	}
	results := opt.run(specs)
	t := stats.NewTable("Shadow-tag sampling (§4.6): harmonic IPC, full vs 1/16 of sets",
		"full", "sampled", "sampled/full")
	var full, sampled stats.Accumulator
	var fullM, sampledM stats.Accumulator
	for i, mix := range mixes {
		rf, rs := results[2*i][0], results[2*i+1][0]
		t.AddRow(workload.MixNames(mix), rf.HarmonicIPC, rs.HarmonicIPC,
			stats.Speedup(rs.HarmonicIPC, rf.HarmonicIPC))
		full.Add(rf.HarmonicIPC)
		sampled.Add(rs.HarmonicIPC)
		fullM.Add(rf.MeanIPC)
		sampledM.Add(rs.MeanIPC)
	}
	return SamplingResult{
		Table:               t,
		MeanIPCDeltaPct:     stats.PercentGain(sampledM.Mean(), fullM.Mean()),
		HarmonicIPCDeltaPct: stats.PercentGain(sampled.Mean(), full.Mean()),
	}
}

// AnecdoteResult reproduces the §4.3 wupwise/ammp case study.
type AnecdoteResult struct {
	Table            *stats.Table
	WupwiseSlowdown  float64 // adaptive wupwise IPC / private wupwise IPC (< 1)
	AmmpSpeedup      float64 // adaptive ammp IPC / private ammp IPC (> 1)
	HarmonicAdaptive float64
	HarmonicPrivate  float64
}

// Anecdote runs the 3×ammp + 1×wupwise experiment of §4.3: the adaptive
// scheme deliberately sacrifices the fast wupwise to speed up the three
// cache-starved ammp copies, raising the harmonic mean.
func Anecdote(opt Options) AnecdoteResult {
	opt = opt.withDefaults()
	ammp, _ := workload.ByName("ammp")
	wupwise, _ := workload.ByName("wupwise")
	mix := []workload.AppParams{wupwise, ammp, ammp, ammp}
	r := opt.run([]sweep.Spec{opt.spec(sweep.Base{}, mix, opt.Seed, sim.SchemePrivate, sim.SchemeAdaptive)})[0]
	rp, ra := r[0], r[1]
	t := stats.NewTable("§4.3 anecdote: wupwise + 3×ammp", "private IPC", "adaptive IPC")
	for core, name := range []string{"wupwise", "ammp-1", "ammp-2", "ammp-3"} {
		t.AddRow(name, rp.PerCoreIPC[core], ra.PerCoreIPC[core])
	}
	t.AddRow("harmonic", rp.HarmonicIPC, ra.HarmonicIPC)
	return AnecdoteResult{
		Table:            t,
		WupwiseSlowdown:  stats.Speedup(ra.PerCoreIPC[0], rp.PerCoreIPC[0]),
		AmmpSpeedup:      stats.Speedup(ra.PerCoreIPC[1], rp.PerCoreIPC[1]),
		HarmonicAdaptive: ra.HarmonicIPC,
		HarmonicPrivate:  rp.HarmonicIPC,
	}
}
