// Command experiments regenerates every table and figure of the paper's
// evaluation, and runs sweep studies from spec files. Each figure
// subcommand prints the corresponding table together with the paper's
// reference numbers so the shapes can be compared at a glance. Use
// -mixes / -cycles / -warmup-instrs to scale figure runs up toward the
// paper's 200 M-cycle windows.
//
// An argument ending in .json is a sweep spec (the schema of POST
// /v1/sweeps; committed studies live in testdata/sweeps). It runs
// in-process through the sweep engine, warming each group of points
// that share a warmup once, and prints one aggregated table; with
// -server it is submitted to a running nucaserve instead, which answers
// already-computed points from its result cache. A spec carries its own
// scale, so the figure scale flags do not apply to it.
//
// Observability:
//
//	-json              emit each table as one JSON object per line instead of text
//	-metrics-out f.csv append every table as CSV (titles on "# " comment lines)
//	-trace-out f.jsonl stream sharing-engine events (JSONL) of every adaptive
//	                   figure run and of every locally run spec group
//	-span-out f.json   write a Perfetto-loadable trace of wall-clock spans:
//	                   one "experiment.<name>" span per figure and one
//	                   "sweep.local" span per spec, with a "sweep.group
//	                   <label>" span per group run, simulation phases nested
//	-cpuprofile f      write a pprof CPU profile of the whole invocation
//	-memprofile f      write a pprof heap profile at exit
//
// Every argument reports wall-clock and simulated-cycles-per-second
// throughput on stderr.
//
// Usage:
//
//	experiments [flags] fig3 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 \
//	                    sampling anecdote cost table1 scaling parallel all
//	experiments [flags] [-server URL] study.json ...
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"nucasim/internal/core"
	"nucasim/internal/experiment"
	"nucasim/internal/serve"
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
	server := flag.String("server", "", "submit sweep spec files to a running nucaserve at this base URL instead of simulating in-process")
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
		fmt.Fprintln(os.Stderr, "usage: experiments [flags] fig3|fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12|sampling|anecdote|cost|table1|scaling|parallel|all|<spec>.json")
		os.Exit(2)
	}
	for _, w := range which {
		if *server != "" && !isSpec(w) {
			fmt.Fprintf(os.Stderr, "experiments: -server runs sweep spec files only, not %s\n", w)
			os.Exit(2)
		}
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
				timed(x, opt, *server, out, session)
			}
			continue
		}
		timed(w, opt, *server, out, session)
	}

	if err := session.Close(true); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

// isSpec reports whether an argument names a sweep spec file rather
// than a figure.
func isSpec(arg string) bool { return strings.HasSuffix(arg, ".json") }

// timed runs one argument under a pprof phase label and reports its
// wall-clock and simulated throughput on stderr. A figure runs under an
// "experiment.<name>" span, with the adaptive runs' simulation phases
// nested beneath it; a spec file runs as a study (runSpec).
func timed(which string, opt experiment.Options, server string, out *output, session *cliflags.Session) {
	start := time.Now()
	cyclesBefore := sim.CyclesSimulated()
	telemetry.WithPhase(context.Background(), which, func(context.Context) {
		if isSpec(which) {
			t, err := runSpec(which, server, opt.Run.CheckInvariants, session)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				session.Close(false)
				os.Exit(1)
			}
			out.table(t)
			return
		}
		sp := session.StartSpan("experiment." + which)
		if session.Trace != nil || session.Spans != nil {
			opt.Run.Attach = adaptiveTelemetry(session, sp.ID())
		}
		run(which, opt, out)
		sp.End()
	})
	tp := telemetry.Throughput{
		Wall:      time.Since(start),
		SimCycles: sim.CyclesSimulated() - cyclesBefore,
	}
	fmt.Fprintf(os.Stderr, "# %s: %s\n", which, tp)
}

// adaptiveTelemetry gives each adaptive point the session's trace
// writer and span recorder, labelled "adaptive-seed<N>" so decisions
// from different mixes stay distinguishable, with its simulation phases
// nested under parent. The baselines run with no telemetry, as every
// figure point does when nothing is traced.
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

// runSpec reads the sweep spec at path and runs it, in-process or on
// the nucaserve at server, returning the aggregated table.
func runSpec(path, server string, checkInvariants bool, session *cliflags.Session) (*stats.Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec, err := sweep.ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if server != "" {
		return runRemote(server, spec)
	}
	return runLocal(spec, checkInvariants, session)
}

// runLocal expands the spec and runs it in-process through the sweep
// engine, one run per warmup group, under a "sweep.local" span with a
// "sweep.group <label>" span per group run. Each group's trace events
// and simulation spans carry the label of its longest point.
func runLocal(spec sweep.Spec, checkInvariants bool, session *cliflags.Session) (*stats.Table, error) {
	points, err := sweep.Expand(spec, 0)
	if err != nil {
		return nil, err
	}
	var trace io.Writer
	if session.Trace != nil {
		trace = session.Trace
	}
	parent := session.StartSpan("sweep.local")
	// A group run ends with its longest point, the one Attach names.
	var group telemetry.Span
	var longest string
	results, st, err := sweep.RunLocal(context.Background(), points, sweep.LocalOptions{
		CheckInvariants: checkInvariants,
		Attach: func(p sweep.Point) *telemetry.Config {
			group = session.Spans.StartSpan("sweep.group "+p.Label, parent.ID())
			longest = p.Label
			return &telemetry.Config{
				Run:         p.Label,
				TraceWriter: trace,
				Spans:       session.Spans,
				SpanParent:  group.ID(),
			}
		},
		OnPoint: func(p sweep.Point, _ sim.Result) {
			if p.Label == longest {
				group.End()
			}
		},
	})
	parent.End()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "# sweep: %d points, %d warmups run (%d forked, %d cold)\n",
		len(points), st.WarmupsRun, st.Forked, st.Cold)
	return sweep.Aggregate(spec.Name, points, results), nil
}

// runRemote submits the spec to a nucaserve instance, polls the sweep
// until it settles, and downloads the aggregated table. Points the
// server has already computed (for earlier jobs or sweeps) are answered
// from its result cache without re-simulating.
func runRemote(base string, spec sweep.Spec) (*stats.Table, error) {
	base = strings.TrimRight(base, "/")
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var st serve.SweepStatus
	resp, err := http.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err := readJSON(resp, err, &st); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "# sweep %.12s: %d points (%d cached, %d warmup groups, %d forked)\n",
		st.ID, st.Points, st.CachedPoints, st.WarmupGroups, st.ForkedPoints)

	lastResolved := -1
	for st.State == serve.SweepPending {
		time.Sleep(250 * time.Millisecond)
		resp, err := http.Get(base + "/v1/sweeps/" + st.ID)
		if err := readJSON(resp, err, &st); err != nil {
			return nil, err
		}
		if st.Resolved != lastResolved {
			lastResolved = st.Resolved
			fmt.Fprintf(os.Stderr, "# sweep %.12s: %d/%d points resolved\n", st.ID, st.Resolved, st.Points)
		}
	}
	if st.State != serve.SweepDone {
		return nil, fmt.Errorf("sweep %.12s %s: %s", st.ID, st.State, st.Error)
	}
	var t stats.Table
	resp, err = http.Get(base + "/v1/sweeps/" + st.ID + "/result")
	if err := readJSON(resp, err, &t); err != nil {
		return nil, err
	}
	return &t, nil
}

// readJSON decodes the JSON body of a 2xx response into v. It takes the
// request's error too, so a call site reads as one step.
func readJSON(resp *http.Response, err error, v any) error {
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	req := resp.Request
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: HTTP %d: %s", req.Method, req.URL, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s %s: %w", req.Method, req.URL, err)
	}
	return nil
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
