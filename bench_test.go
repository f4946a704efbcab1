// Benchmarks that regenerate every table and figure of the paper's
// evaluation (one benchmark per experiment), plus ablations for the design
// choices DESIGN.md calls out and microbenchmarks of the hot simulation
// paths. Key outcomes are attached as custom benchmark metrics so
// `go test -bench=. -benchmem` doubles as the reproduction record:
//
//	adaptive_vs_private_hm_pct   Figure 6 headline (paper: +21 %)
//	adaptive_vs_shared_hm_pct    Figure 6 headline (paper: +2 %)
//	...
//
// Benchmarks run at laptop scale (a few hundred thousand measured cycles);
// cmd/experiments can rerun any figure at paper scale.
package nucasim_test

import (
	"io"
	"testing"

	"nucasim/internal/core"
	"nucasim/internal/dram"
	"nucasim/internal/experiment"
	"nucasim/internal/llc"
	"nucasim/internal/memaddr"
	"nucasim/internal/rng"
	"nucasim/internal/sim"
	"nucasim/internal/telemetry"
	"nucasim/internal/workload"
)

// benchOpt sizes figure reproductions for the bench harness.
func benchOpt() experiment.Options {
	return experiment.Options{
		Seed:               42,
		Mixes:              4,
		WarmupInstructions: 800_000,
		WarmupCycles:       50_000,
		MeasureCycles:      400_000,
	}
}

// BenchmarkTable1 exercises one full baseline run with the Table 1
// configuration (everything at defaults).
func BenchmarkTable1(b *testing.B) {
	p1, _ := workload.ByName("gzip")
	p2, _ := workload.ByName("mcf")
	p3, _ := workload.ByName("ammp")
	p4, _ := workload.ByName("wupwise")
	mix := []workload.AppParams{p1, p2, p3, p4}
	for i := 0; i < b.N; i++ {
		r := sim.Run(sim.Config{Scheme: sim.SchemePrivate, Seed: 1,
			WarmupInstructions: 400_000, MeasureCycles: 200_000}, mix)
		b.ReportMetric(r.HarmonicIPC, "harmonic_ipc")
	}
}

// BenchmarkFig3 regenerates the way-sensitivity curves of Figure 3 and
// reports the paper's two anchors: mcf's relative drop from 1 to 16 ways
// (flat) and gzip's (kneed).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiment.Fig3(benchOpt())
		for r := 0; r < t.NumRows(); r++ {
			label, vals := t.Row(r)
			drop := (vals[0] - vals[len(vals)-1]) / vals[0]
			switch label {
			case "mcf":
				b.ReportMetric(drop, "mcf_rel_drop")
			case "gzip":
				b.ReportMetric(drop, "gzip_rel_drop")
			}
		}
	}
}

// BenchmarkFig5 regenerates the intensity classification and reports how
// many of the 24 applications land in the designed class.
func BenchmarkFig5(b *testing.B) {
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		t := experiment.Fig5(opt)
		agree := 0
		for r := 0; r < t.NumRows(); r++ {
			label, vals := t.Row(r)
			p, _ := workload.ByName(label)
			if (vals[1] == 1) == p.Intensive {
				agree++
			}
		}
		b.ReportMetric(float64(agree), "apps_classified_as_designed")
	}
}

// BenchmarkFig6 regenerates the headline experiment: harmonic-mean IPC of
// random intensive mixes under private/shared/adaptive.
func BenchmarkFig6(b *testing.B) {
	opt := benchOpt()
	opt.Mixes = 6
	for i := 0; i < b.N; i++ {
		r := experiment.Fig6(opt)
		b.ReportMetric(r.HarmonicGainVsPrivatePct, "adaptive_vs_private_hm_pct")
		b.ReportMetric(r.HarmonicGainVsSharedPct, "adaptive_vs_shared_hm_pct")
		b.ReportMetric(r.MeanGainVsPrivatePct, "adaptive_vs_private_mean_pct")
		b.ReportMetric(r.MeanGainVsSharedPct, "adaptive_vs_shared_mean_pct")
	}
}

// BenchmarkFig7 regenerates the per-app speedups for intensive apps and
// reports the capacity beneficiaries' 4x-private speedups (paper: ammp,
// art, twolf and vpr gain from larger caches).
func BenchmarkFig7(b *testing.B) {
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		t := experiment.Fig7(opt)
		for r := 0; r < t.NumRows(); r++ {
			label, vals := t.Row(r)
			switch label {
			case "ammp", "art", "twolf", "vpr":
				// columns: shared, adaptive, private4x, samples
				b.ReportMetric(vals[2], label+"_4x_speedup")
			}
		}
	}
}

// BenchmarkFig8 regenerates the all-apps speedup figure and reports the
// average adaptive speedup across non-intensive apps (paper: near 1.0).
func BenchmarkFig8(b *testing.B) {
	opt := benchOpt()
	opt.Mixes = 6
	for i := 0; i < b.N; i++ {
		t := experiment.Fig8(opt)
		sum, n := 0.0, 0
		for r := 0; r < t.NumRows(); r++ {
			label, vals := t.Row(r)
			if p, _ := workload.ByName(label); !p.Intensive {
				sum += vals[1] // adaptive column
				n++
			}
		}
		if n > 0 {
			b.ReportMetric(sum/float64(n), "nonintensive_adaptive_speedup")
		}
	}
}

// BenchmarkFig9 regenerates the 8 MB study and reports the average
// adaptive speedup (paper: the constraints can hurt when capacity is
// ample, so it should sit lower than in Figure 7).
func BenchmarkFig9(b *testing.B) {
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		t := experiment.Fig9(opt)
		b.ReportMetric(t.ColumnMean(1), "adaptive_speedup_8mb")
	}
}

// BenchmarkFig10 regenerates the technology-scaling study.
func BenchmarkFig10(b *testing.B) {
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		r := experiment.Fig10(opt)
		b.ReportMetric(r.AvgAdaptive, "adaptive_scaled_speedup")
		b.ReportMetric(r.AvgShared, "shared_scaled_speedup")
	}
}

// BenchmarkFig11 regenerates adaptive vs "random replacement" on intensive
// mixes (paper: adaptive generally better).
func BenchmarkFig11(b *testing.B) {
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		t := experiment.Fig11(opt)
		_, vals := t.Row(t.NumRows() - 1) // average row
		b.ReportMetric(vals[2], "adaptive_vs_coop_intensive")
	}
}

// BenchmarkFig12 regenerates adaptive vs "random replacement" across both
// categories (paper: near parity).
func BenchmarkFig12(b *testing.B) {
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		t := experiment.Fig12(opt)
		_, vals := t.Row(t.NumRows() - 1)
		b.ReportMetric(vals[2], "adaptive_vs_coop_all")
	}
}

// BenchmarkShadowSampling regenerates the §4.6 study: shadow tags in 1/16
// of the sets should be nearly free.
func BenchmarkShadowSampling(b *testing.B) {
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		r := experiment.ShadowSampling(opt)
		b.ReportMetric(r.HarmonicIPCDeltaPct, "sampling_hm_delta_pct")
		b.ReportMetric(r.MeanIPCDeltaPct, "sampling_mean_delta_pct")
	}
}

// BenchmarkAnecdote regenerates the §4.3 wupwise + 3×ammp case study.
func BenchmarkAnecdote(b *testing.B) {
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		r := experiment.Anecdote(opt)
		b.ReportMetric(r.AmmpSpeedup, "ammp_speedup")
		b.ReportMetric(r.WupwiseSlowdown, "wupwise_ratio")
		b.ReportMetric(r.HarmonicAdaptive/r.HarmonicPrivate, "harmonic_ratio")
	}
}

// BenchmarkStorageCost evaluates the §2.7 cost model (paper: 152 Kbit).
func BenchmarkStorageCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := core.StorageCost(core.CostParams{SampleShift: 4})
		b.ReportMetric(c.KBits(), "total_kbit")
	}
}

// BenchmarkCoreScaling regenerates the §6 scaling study (4 vs 8 cores).
func BenchmarkCoreScaling(b *testing.B) {
	opt := benchOpt()
	opt.Mixes = 3
	for i := 0; i < b.N; i++ {
		r := experiment.CoreScaling(opt)
		b.ReportMetric(r.GainAtCores[4], "gain_pct_4cores")
		b.ReportMetric(r.GainAtCores[8], "gain_pct_8cores")
	}
}

// BenchmarkParallelWorkloads regenerates the §3 future-work study.
func BenchmarkParallelWorkloads(b *testing.B) {
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		r := experiment.ParallelWorkloads(opt)
		b.ReportMetric(r.AdaptiveVsPrivate, "adaptive_vs_private")
		b.ReportMetric(r.SharedVsPrivate, "shared_vs_private")
	}
}

// --- Ablations for DESIGN.md design choices ---

// BenchmarkAblationRepartitionPeriod sweeps the controller's
// re-evaluation period around the paper's 2000-miss choice.
func BenchmarkAblationRepartitionPeriod(b *testing.B) {
	p1, _ := workload.ByName("ammp")
	p2, _ := workload.ByName("swim")
	p3, _ := workload.ByName("lucas")
	mix := []workload.AppParams{p1, p2, p3, p3}
	for _, period := range []int{500, 2000, 8000} {
		b.Run(benchName(period), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := sim.Run(sim.Config{
					Scheme: sim.SchemeAdaptive, Seed: 7,
					WarmupInstructions: 800_000, MeasureCycles: 400_000,
					RepartitionPeriod: period,
				}, mix)
				b.ReportMetric(r.HarmonicIPC, "harmonic_ipc")
				b.ReportMetric(float64(r.Repartitions), "repartitions")
			}
		})
	}
}

func benchName(period int) string {
	switch period {
	case 500:
		return "period=500"
	case 2000:
		return "period=2000(paper)"
	default:
		return "period=8000"
	}
}

// BenchmarkAblationMechanisms isolates the two mechanisms of the paper's
// contribution on a pollution-prone mix: Algorithm 1's per-owner
// protection and the repartitioning controller.
func BenchmarkAblationMechanisms(b *testing.B) {
	p1, _ := workload.ByName("gzip")
	p2, _ := workload.ByName("swim")
	p3, _ := workload.ByName("ammp")
	p4, _ := workload.ByName("lucas")
	mix := []workload.AppParams{p1, p2, p3, p4}
	cases := []struct {
		name            string
		noProt, noAdapt bool
	}{
		{"full(paper)", false, false},
		{"no-protection", true, false},
		{"no-adaptation", false, true},
		{"static-unprotected", true, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := sim.Run(sim.Config{
					Scheme: sim.SchemeAdaptive, Seed: 5,
					WarmupInstructions: 800_000, MeasureCycles: 400_000,
					DisableProtection: c.noProt, DisableAdaptation: c.noAdapt,
				}, mix)
				b.ReportMetric(r.HarmonicIPC, "harmonic_ipc")
			}
		})
	}
}

// BenchmarkAblationInitialPartition compares the paper's 75 % initial
// private fraction against an all-shared start by measuring how many
// transfers the controller needs (a proxy for convergence effort).
func BenchmarkAblationInitialPartition(b *testing.B) {
	p1, _ := workload.ByName("ammp")
	p2, _ := workload.ByName("gzip")
	p3, _ := workload.ByName("swim")
	p4, _ := workload.ByName("mcf")
	mix := []workload.AppParams{p1, p2, p3, p4}
	for i := 0; i < b.N; i++ {
		r := sim.Run(sim.Config{
			Scheme: sim.SchemeAdaptive, Seed: 9,
			WarmupInstructions: 800_000, MeasureCycles: 400_000,
		}, mix)
		b.ReportMetric(r.HarmonicIPC, "harmonic_ipc_75pct_start")
	}
}

// --- Microbenchmarks of the hot simulation paths ---

func BenchmarkSimulatorCycle(b *testing.B) {
	p, _ := workload.ByName("gcc")
	mix := []workload.AppParams{p, p, p, p}
	m := sim.NewMachine(sim.Config{Scheme: sim.SchemeAdaptive, Seed: 1}, mix)
	m.WarmFunctional(200_000)
	b.ResetTimer()
	m.Run(uint64(b.N))
}

func BenchmarkAdaptiveAccess(b *testing.B) {
	mem := dram.New(dram.PrivateConfig())
	a := core.NewAdaptive(core.Config{}, mem)
	r := rng.New(1)
	addrs := make([]memaddr.Addr, 4096)
	for i := range addrs {
		addrs[i] = memaddr.Addr(r.Uint64n(1 << 22)).Block().WithSpace(i % 4)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Access(i%4, addrs[i%len(addrs)], false, uint64(i))
	}
}

// BenchmarkAdaptiveAccessTelemetry is BenchmarkAdaptiveAccess with the
// full telemetry stack attached (counters, epoch ring, JSONL trace to
// io.Discard). Comparing the two bounds the observability tax; with
// telemetry absent the hot path pays only nil checks.
func BenchmarkAdaptiveAccessTelemetry(b *testing.B) {
	mem := dram.New(dram.PrivateConfig())
	a := core.NewAdaptive(core.Config{}, mem)
	a.SetTelemetry(telemetry.New(telemetry.Config{TraceWriter: io.Discard}))
	r := rng.New(1)
	addrs := make([]memaddr.Addr, 4096)
	for i := range addrs {
		addrs[i] = memaddr.Addr(r.Uint64n(1 << 22)).Block().WithSpace(i % 4)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Access(i%4, addrs[i%len(addrs)], false, uint64(i))
	}
}

func BenchmarkSharedAccess(b *testing.B) {
	mem := dram.New(dram.SharedConfig())
	s := llc.NewShared(4, mem, llc.DefaultLatencies())
	r := rng.New(1)
	addrs := make([]memaddr.Addr, 4096)
	for i := range addrs {
		addrs[i] = memaddr.Addr(r.Uint64n(1 << 22)).Block().WithSpace(i % 4)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Access(i%4, addrs[i%len(addrs)], false, uint64(i))
	}
}

// BenchmarkSpanStartEnd measures the enabled wall-clock span hot path:
// one StartSpan/SetDetail/End round trip into the preallocated flight
// recorder. The value handle and fixed ring keep this allocation-free.
func BenchmarkSpanStartEnd(b *testing.B) {
	rec := telemetry.NewSpanRecorder(telemetry.SpanConfig{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := rec.StartSpan("bench.phase", 0)
		sp.SetDetail(uint64(i))
		sp.End()
	}
}

// BenchmarkSpanStartEndDisabled measures the same call sequence with
// spans off (nil recorder) — the cost every phase boundary pays in a
// run without -span-out. CI asserts 0 allocs/op on this path.
func BenchmarkSpanStartEndDisabled(b *testing.B) {
	var rec *telemetry.SpanRecorder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := rec.StartSpan("bench.phase", 0)
		sp.SetDetail(uint64(i))
		sp.End()
	}
}
