// Command experiments regenerates every table and figure of the paper's
// evaluation. Each subcommand prints the corresponding table together
// with the paper's reference numbers so the shapes can be compared at a
// glance. Use -mixes / -cycles / -warmup-instrs to scale runs up toward
// the paper's 200 M-cycle windows.
//
// Observability:
//
//	-json              emit each table as one JSON object per line instead of text
//	-metrics-out f.csv append every table as CSV (titles on "# " comment lines)
//	-trace-out f.jsonl stream all adaptive runs' sharing-engine events (JSONL)
//	-span-out f.json   write a Perfetto-loadable trace of wall-clock spans,
//	                   one "experiment.<name>" span per subcommand with the
//	                   adaptive runs' simulation phases nested beneath
//	-cpuprofile f      write a pprof CPU profile of the whole invocation
//	-memprofile f      write a pprof heap profile at exit
//
// Every experiment reports wall-clock and simulated-cycles-per-second
// throughput on stderr.
//
// Usage:
//
//	experiments [flags] fig3 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 \
//	                    sampling anecdote cost table1 scaling parallel all
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"nucasim/internal/core"
	"nucasim/internal/experiment"
	"nucasim/internal/sim"
	"nucasim/internal/stats"
	"nucasim/internal/sweep"
	"nucasim/internal/telemetry"
	"nucasim/internal/tools/cliflags"
)

// output carries the artifact sinks every experiment writes through.
type output struct {
	json    bool
	metrics io.Writer // nil unless -metrics-out
}

// table emits one result table to stdout (text or JSON line) and to the
// metrics CSV if requested.
func (o *output) table(t *stats.Table) {
	if o.json {
		b, err := json.Marshal(t)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(string(b))
	} else {
		fmt.Println(t)
	}
	if o.metrics != nil {
		if err := t.WriteCSV(o.metrics); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// say prints commentary (paper reference numbers) in text mode only, so
// -json output stays machine-readable.
func (o *output) say(format string, args ...any) {
	if !o.json {
		fmt.Printf(format+"\n", args...)
	}
}

func main() {
	var opt experiment.Options
	flag.Uint64Var(&opt.Seed, "seed", 42, "experiment seed (runs are deterministic in it)")
	flag.IntVar(&opt.Mixes, "mixes", 0, "random 4-app experiments per figure (default 8)")
	flag.Uint64Var(&opt.WarmupInstructions, "warmup-instrs", 0, "functional warmup instructions per core (default 1e6)")
	flag.Uint64Var(&opt.WarmupCycles, "warmup-cycles", 0, "timed warmup cycles (default 1e5)")
	flag.Uint64Var(&opt.MeasureCycles, "cycles", 0, "measured cycles (default 6e5; paper: 2e8)")
	flag.BoolVar(&opt.Run.CheckInvariants, "check-invariants", false, "verify adaptive-scheme structural invariants at every repartition epoch (aborts on violation)")
	common := cliflags.Register(flag.CommandLine, cliflags.Spec{
		Command:      "experiments",
		JSONUsage:    "emit tables as JSON Lines instead of text",
		MetricsUsage: "append every table as CSV to this file",
		TraceUsage:   "stream adaptive runs' sharing-engine events (JSONL) to this file",
		SpanUsage:    "write wall-clock phase spans as Chrome trace-event JSON (Perfetto-loadable) to this file",
		Profiles:     true,
	})
	flag.Parse()
	which := flag.Args()
	if len(which) == 0 {
		fmt.Fprintln(os.Stderr, "usage: experiments [flags] fig3|fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12|sampling|anecdote|cost|table1|scaling|parallel|all")
		os.Exit(2)
	}

	session, err := common.Open(true)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	out := &output{json: common.JSON}
	if session.Metrics != nil {
		out.metrics = session.Metrics
	}

	for _, w := range which {
		if w == "all" {
			for _, x := range []string{"table1", "cost", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "sampling", "anecdote", "scaling", "parallel"} {
				timed(x, opt, out, session)
			}
			continue
		}
		timed(w, opt, out, session)
	}

	if err := session.Close(true); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

// timed runs one experiment under an "experiment.<name>" span (the
// adaptive runs' simulation phases nest beneath it) and a pprof phase
// label, and reports its wall-clock and simulated throughput on stderr.
func timed(which string, opt experiment.Options, out *output, session *cliflags.Session) {
	start := time.Now()
	cyclesBefore := sim.CyclesSimulated()
	sp := session.StartSpan("experiment." + which)
	if session.Trace != nil || session.Spans != nil {
		opt.Run.Attach = adaptiveTelemetry(session, sp.ID())
	}
	telemetry.WithPhase(context.Background(), which, func(context.Context) {
		run(which, opt, out)
	})
	sp.End()
	tp := telemetry.Throughput{
		Wall:      time.Since(start),
		SimCycles: sim.CyclesSimulated() - cyclesBefore,
	}
	fmt.Fprintf(os.Stderr, "# %s: %s\n", which, tp)
}

// adaptiveTelemetry gives each adaptive point the session's trace
// writer and span recorder, labelled "adaptive-seed<N>" so decisions
// from different mixes stay distinguishable, with its simulation phases
// nested under parent. The baselines keep the sweep engine's default.
func adaptiveTelemetry(session *cliflags.Session, parent telemetry.SpanID) func(sweep.Point) *telemetry.Config {
	var trace io.Writer
	if session.Trace != nil {
		trace = session.Trace
	}
	return func(p sweep.Point) *telemetry.Config {
		if p.Cfg.Scheme != sim.SchemeAdaptive {
			return nil
		}
		return &telemetry.Config{
			Run:         fmt.Sprintf("%s-seed%d", p.Cfg.Scheme, p.Cfg.Seed),
			TraceWriter: trace,
			Spans:       session.Spans,
			SpanParent:  parent,
		}
	}
}

func run(which string, opt experiment.Options, out *output) {
	switch which {
	case "table1":
		if !out.json {
			printTable1()
		}
	case "cost":
		if !out.json {
			printCost()
		}
	case "fig3":
		out.table(experiment.Fig3(opt))
		out.say("paper: mcf is the innermost (flattest) curve — one block per set suffices;")
		out.say("gzip needs four blocks per set to avoid most misses.")
	case "fig5":
		out.table(experiment.Fig5(opt))
		out.say("threshold: %.0f accesses per 1000 cycles (paper §4.1)", experiment.IntensiveThreshold)
	case "fig6":
		r := experiment.Fig6(opt)
		out.table(r.Table)
		out.say("adaptive vs private: harmonic %+.1f%%, mean %+.1f%%  (paper: +21%%, +13%%)",
			r.HarmonicGainVsPrivatePct, r.MeanGainVsPrivatePct)
		out.say("adaptive vs shared:  harmonic %+.1f%%, mean %+.1f%%  (paper: +2%%, +5%%)",
			r.HarmonicGainVsSharedPct, r.MeanGainVsSharedPct)
	case "fig7":
		out.table(experiment.Fig7(opt))
		out.say("paper: ammp, art, twolf and vpr benefit from capacity (high private4x")
		out.say("columns); the adaptive scheme tracks or beats shared for them.")
	case "fig8":
		out.table(experiment.Fig8(opt))
		out.say("paper: non-intensive apps sit near 1.0; wupwise can lose when")
		out.say("co-scheduled with three ammp copies (see 'anecdote').")
	case "fig9":
		out.table(experiment.Fig9(opt))
		out.say("paper: with an 8 MB L3 most apps no longer gain from capacity and the")
		out.say("adaptive scheme's constraints can degrade performance.")
	case "fig10":
		r := experiment.Fig10(opt)
		out.table(r.Table)
		out.say("scaled technology: shared %.3f, adaptive %.3f average speedup vs private",
			r.AvgShared, r.AvgAdaptive)
		out.say("(paper: the adaptive scheme has the highest average gain)")
	case "fig11":
		out.table(experiment.Fig11(opt))
		out.say("paper: the adaptive scheme generally beats random replacement on")
		out.say("memory-intensive mixes.")
	case "fig12":
		out.table(experiment.Fig12(opt))
		out.say("paper: with both categories mixed in, the two schemes come out close.")
	case "sampling":
		r := experiment.ShadowSampling(opt)
		out.table(r.Table)
		out.say("sampling 1/16 of sets: mean IPC %+.2f%%, harmonic IPC %+.2f%%  (paper: +0.1%%, -0.1%%)",
			r.MeanIPCDeltaPct, r.HarmonicIPCDeltaPct)
	case "anecdote":
		r := experiment.Anecdote(opt)
		out.table(r.Table)
		out.say("wupwise slowdown %.3f, ammp speedup %.3f; harmonic %.4f -> %.4f",
			r.WupwiseSlowdown, r.AmmpSpeedup, r.HarmonicPrivate, r.HarmonicAdaptive)
		out.say("(paper §4.3: wupwise 1.797 -> 1.326 while 3x ammp 0.0319 -> 0.032x;")
		out.say("the harmonic mean still improves, which is the scheme's objective)")
	case "scaling":
		r := experiment.CoreScaling(opt)
		out.table(r.Table)
		out.say("adaptive gain over private: %+.1f%% at 4 cores, %+.1f%% at 8 cores",
			r.GainAtCores[4], r.GainAtCores[8])
		out.say("(paper §6 conjectures the scheme scales to higher core counts; the")
		out.say("remaining gain at 8 cores is bounded by memory-channel saturation)")
	case "parallel":
		r := experiment.ParallelWorkloads(opt)
		out.table(r.Table)
		out.say("average speedup vs private: adaptive %.2fx, shared %.2fx",
			r.AdaptiveVsPrivate, r.SharedVsPrivate)
		out.say("(paper §3 hypothesizes the scheme is effective for parallel workloads;")
		out.say("single-copy shared data makes both organizations beat replicating")
		out.say("private caches, with the adaptive scheme also protecting thread-private")
		out.say("state — read-mostly sharing only, no coherence protocol is modelled)")
	default:
		fmt.Fprintln(os.Stderr, "unknown experiment:", which)
		os.Exit(2)
	}
	out.say("")
}

func printTable1() {
	fmt.Print(`Table 1: baseline configuration (see internal/sim, internal/hierarchy,
internal/dram, internal/bpred, internal/tlb defaults)

  Register update unit          128 instructions
  Load/store queue              64 instructions
  Fetch queue                   4 instructions
  Fetch/decode/issue/commit     4 instructions/cycle
  Functional units              4 INT ALU, 4 FP ALU, 1 INT mul/div, 1 FP mul/div
  Branch predictor              combined: bimodal 4K, 2-level 1K x 10-bit, 4K chooser
  Branch target buffer          512-entry, 4-way
  Mispredict penalty            7 cycles
  L1 I/D                        64 KB, 2-way LRU, 64 B blocks, 2/3 cycles
  L2 I/D                        128/256 KB, 4-way LRU, 64 B blocks, 9/9 cycles
  Shared L3                     4 MB, 16-way LRU, 64 B blocks, 19 cycles
  Private L3                    1 MB/core, 4-way LRU, 14 cycles local / 19 neighbor
  Main memory                   260 cycles first chunk (258 private), 4 cycles/chunk,
                                8 B chunks, 9 GB/s at 4.5 GHz (2 B/cycle)
  I/D TLB                       128-entry fully associative, 30-cycle miss
  Cores                         4
`)
}

func printCost() {
	c := core.StorageCost(core.CostParams{SampleShift: 4})
	fmt.Printf(`Storage cost (Section 2.7), baseline parameters:
  shadow tags   %8d bits (%.0f%%)
  core IDs      %8d bits (%.0f%%)
  counters      %8d bits
  total         %8.1f Kbit (paper: 152 Kbit; 16%% shadow tags, 84%% core IDs)
  overhead      %8.2f%% of the 4 MB L3 (paper: 0.5%%)
`,
		c.ShadowTagBits, c.ShadowShare()*100,
		c.CoreIDBits, c.CoreIDShare()*100,
		c.CounterBits, c.KBits(), c.OverheadOf(4<<20)*100)
}
