// Command nucasim runs one multiprogrammed workload mix on the simulated
// CMP under a chosen last-level cache organization and reports per-core
// IPC, cache behaviour and (for the adaptive scheme) the sharing
// engine's telemetry: evaluations, transfers, and the partition history.
//
// Machine-readable artifacts:
//
//	-metrics-out m.csv   epoch time-series (one row per repartition evaluation)
//	-trace-out t.jsonl   JSONL event trace (decisions, swaps, demotions, evictions)
//	-span-out s.json     wall-clock phase spans (warmup, measurement chunks,
//	                     repartitions, checkpoint/artifact writes) as Chrome
//	                     trace-event JSON — load in Perfetto or chrome://tracing
//	-full-trace          lossless trace: every fill/hit/swap/migrate/demote/evict
//	                     with tag and LRU depth — replayable by cmd/nucadbg
//	-replay-verify       cross-check the trace against the live cache every epoch
//	-json                full run summary as JSON on stdout instead of text
//
// Hardening:
//
//	-check-invariants    verify the adaptive scheme's structural invariants
//	                     at every repartition epoch (abort on violation)
//	-checkpoint c.bin    crash-safe state snapshots: written periodically
//	                     (-checkpoint-every) and on SIGINT/SIGTERM (exit 3)
//	-resume c.bin        continue an interrupted run; results are
//	                     bit-identical to the uninterrupted run
//
// Example:
//
//	nucasim -scheme adaptive -apps ammp,swim,lucas,lucas -cycles 2000000 \
//	        -metrics-out m.csv -trace-out t.jsonl
//
// The number of apps sets the core count (the paper's machine is 4).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"nucasim/internal/sim"
	"nucasim/internal/sweep"
	"nucasim/internal/telemetry"
	"nucasim/internal/tools/cliflags"
	"nucasim/internal/workload"
)

func main() {
	scheme := flag.String("scheme", "adaptive", "llc organization: private|shared|private4x|coop|adaptive")
	apps := flag.String("apps", "ammp,swim,lucas,gzip", "comma-separated application names (one per core, ≥2; see -list)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	warmup := flag.Uint64("warmup-instrs", 1_000_000, "functional warmup instructions per core")
	cycles := flag.Uint64("cycles", 1_000_000, "measured cycles")
	scaled := flag.Bool("scaled", false, "use §4.5 technology-scaled latencies")
	l3 := flag.Int("l3-bytes", 1<<20, "L3 bytes per core (private partition size)")
	sample := flag.Bool("sample-shadow", false, "shadow tags in 1/16 of sets (§4.6)")
	list := flag.Bool("list", false, "list available applications and exit")

	common := cliflags.Register(flag.CommandLine, cliflags.Spec{
		Command:      "nucasim",
		JSONUsage:    "print the run summary as JSON instead of text",
		MetricsUsage: "write the epoch time-series as CSV to this file",
		TraceUsage:   "write the sharing-engine event trace as JSON Lines to this file",
		SpanUsage:    "write wall-clock phase spans as Chrome trace-event JSON to this file (Perfetto-loadable)",
		Profiles:     true,
	})
	traceSample := flag.Uint64("trace-sample", 16, "record 1 in N block events (swap/migrate/demote/evict); decisions are always recorded")
	fullTrace := flag.Bool("full-trace", false, "record every event of every kind with tag and LRU depth — lossless, replayable by nucadbg (large output)")
	replayVerify := flag.Bool("replay-verify", false, "adaptive only: cross-check trace-reconstructed cache state against the live cache at every repartition epoch")
	epochCap := flag.Int("epoch-cap", telemetry.DefaultEpochCapacity, "bound on retained epoch samples (oldest dropped)")
	checkInv := flag.Bool("check-invariants", false, "adaptive only: verify structural invariants at every repartition epoch and at the end of the run")
	checkpoint := flag.String("checkpoint", "", "write a crash-safe state checkpoint to this file periodically and on interruption (SIGINT/SIGTERM)")
	checkpointEvery := flag.Uint64("checkpoint-every", 0, "checkpoint cadence in measured cycles (default 50000 when -checkpoint is set)")
	resume := flag.String("resume", "", "continue an interrupted run from this checkpoint file (other run-shape flags are ignored)")
	flag.Parse()

	if *list {
		fmt.Println("applications (LLC-intensive marked *):")
		for _, p := range workload.Suite() {
			mark := " "
			if p.Intensive {
				mark = "*"
			}
			fmt.Printf("  %s %-8s (%s)\n", mark, p.Name, p.Suite)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *resume != "" {
		if *replayVerify || common.TraceOut != "" {
			fmt.Fprintln(os.Stderr, "nucasim: -resume cannot re-attach -trace-out or -replay-verify; a resumed run keeps its epoch series and counters only")
			os.Exit(2)
		}
		session, err := common.Open(false)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var r sim.Result
		ck, err := sim.ReadCheckpoint(*resume)
		if err == nil {
			// The resumed run checkpoints to the file it resumed, which
			// is what finish tells the user to continue from.
			ck.Cfg.CheckpointPath = *resume
			r, err = sim.ResumeFromCheckpoint(ctx, ck, func(c *telemetry.Config) bool {
				if session.Spans == nil {
					return false
				}
				c.Spans = session.Spans
				c.SpanParent = session.Root.ID()
				return true
			})
		}
		finish(r, err, *resume, common, session)
		summarize(r, common)
		return
	}

	req := sweep.Base{
		Scheme:             *scheme,
		Seed:               *seed,
		WarmupInstructions: *warmup,
		MeasureCycles:      *cycles,
		L3BytesPerCore:     *l3,
		Scaled:             *scaled,
	}
	for _, name := range strings.Split(*apps, ",") {
		req.Apps = append(req.Apps, strings.TrimSpace(name))
	}
	if *sample {
		req.ShadowSampleShift = 4
	}
	cfg, mix, err := req.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nucasim:", err)
		os.Exit(2)
	}

	// Telemetry is on whenever the scheme has something to observe (the
	// adaptive controller) or an artifact was requested.
	telcfg := telemetry.Config{
		EpochCapacity: *epochCap,
		SampleEvery:   map[telemetry.Kind]uint64{},
		FullTrace:     *fullTrace,
	}
	for _, k := range telemetry.Kinds() {
		if k != telemetry.KindRepartition {
			telcfg.SampleEvery[k] = *traceSample
		}
	}
	cfg.ReplayVerify = *replayVerify
	session, err := common.Open(false)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if session.Trace != nil {
		telcfg.TraceWriter = session.Trace
	}
	if session.Spans != nil {
		telcfg.Spans = session.Spans
		telcfg.SpanParent = session.Root.ID()
	}
	if cfg.Scheme == sim.SchemeAdaptive || common.MetricsOut != "" || common.TraceOut != "" || common.SpanOut != "" || common.JSON {
		cfg.Telemetry = &telcfg
	}
	cfg.CheckInvariants = *checkInv
	cfg.CheckpointPath = *checkpoint
	cfg.CheckpointEvery = *checkpointEvery

	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "nucasim:", err)
		os.Exit(2)
	}

	r, err := sim.RunContext(ctx, cfg, mix)
	finish(r, err, *checkpoint, common, session)
	if *replayVerify {
		if r.ReplayVerifyError != "" {
			fmt.Fprintf(os.Stderr, "nucasim: replay self-verify FAILED: %s\n", r.ReplayVerifyError)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "nucasim: replay self-verify ok: %d epochs cross-checked\n", r.ReplayEpochsVerified)
	}

	summarize(r, common)
}

// finish publishes a completed run's artifacts and removes its
// checkpoint ckPath, which only an unfinished run needs — or, for a
// failed or interrupted run, discards the artifacts and exits (3 when
// ckPath holds a checkpoint to continue from, 1 otherwise).
func finish(r sim.Result, err error, ckPath string, common *cliflags.Flags, session *cliflags.Session) {
	if err != nil {
		// The trace is incomplete; never publish it under the real name.
		session.Close(false)
		if errors.Is(err, sim.ErrInterrupted) {
			if ckPath != "" {
				fmt.Fprintf(os.Stderr, "nucasim: interrupted; state checkpointed — continue with -resume %s\n", ckPath)
			} else {
				fmt.Fprintln(os.Stderr, "nucasim: interrupted (no -checkpoint given, state lost)")
			}
			os.Exit(3)
		}
		fmt.Fprintln(os.Stderr, "nucasim:", err)
		os.Exit(1)
	}
	// The epoch CSV is written before the session closes so its
	// artifact-write span lands in the -span-out trace.
	if err := writeEpochCSV(r, common, session); err != nil {
		session.Close(false)
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Publish the trace before any verification exits: the run itself
	// completed, so the artifact is whole and should survive.
	if err := session.Close(true); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if ckPath != "" {
		if err := os.Remove(ckPath); err != nil && !errors.Is(err, fs.ErrNotExist) {
			fmt.Fprintln(os.Stderr, "nucasim: warning: completed run's checkpoint not removed:", err)
		}
	}
}

// writeEpochCSV publishes the -metrics-out epoch time-series (a no-op
// without the flag), recorded as an artifact.epoch_csv span.
func writeEpochCSV(r sim.Result, common *cliflags.Flags, session *cliflags.Session) error {
	if common.MetricsOut == "" {
		return nil
	}
	sp := session.StartSpan("artifact.epoch_csv")
	defer sp.End()
	return common.WriteMetricsFile(func(w io.Writer) error {
		return telemetry.WriteEpochCSV(w, r.Epochs)
	})
}

// summarize prints the run summary; shared by fresh and resumed runs.
func summarize(r sim.Result, common *cliflags.Flags) {
	// A truncated epoch series must not be mistaken for the whole run —
	// e.g. when a CSV is about to become a regression baseline. The
	// EpochsDropped field in -json output carries the same signal
	// machine-readably.
	if r.EpochsDropped > 0 {
		fmt.Fprintf(os.Stderr,
			"nucasim: warning: epoch ring dropped %d of %d evaluations — the epoch CSV/series is truncated; rerun with -epoch-cap >= %d for a complete baseline\n",
			r.EpochsDropped, r.Evaluations, r.Evaluations)
	}

	if common.JSON {
		out, err := sim.EncodeResult(r)
		if err == nil {
			_, err = os.Stdout.Write(out)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	printText(r)
}

func printText(r sim.Result) {
	fmt.Printf("scheme: %s   mix: %s\n\n", r.Scheme, strings.Join(r.Mix, " "))
	fmt.Printf("%-10s %10s %12s %12s %12s\n", "core/app", "IPC", "L3 acc/kc", "L3 miss/kc", "mispredict")
	for c := range r.CoreStats {
		cs := r.CoreStats[c]
		fmt.Printf("%d %-8s %10.4f %12.3f %12.3f %11.1f%%\n",
			c, r.Mix[c], r.PerCoreIPC[c], r.LLCAccessesPerKCycle[c], r.LLCMissesPerKCycle[c],
			cs.MispredictRate()*100)
	}
	fmt.Printf("\nharmonic IPC %.4f   mean IPC %.4f\n", r.HarmonicIPC, r.MeanIPC)
	llc := r.LLCTotal
	fmt.Printf("L3 totals: %d accesses, %d local hits, %d remote hits, %d misses (%.1f%% miss)\n",
		llc.Accesses, llc.LocalHits, llc.RemoteHits, llc.Misses, llc.MissRate()*100)
	fmt.Printf("memory: %d reads, %d writebacks, %d queue cycles\n",
		r.Memory.Reads, r.Memory.Writebacks, r.Memory.QueueCycles)
	fmt.Printf("throughput: %s\n", r.Throughput)

	// End-to-end latency distributions (cycles), when telemetry was on.
	// The full per-core LLC breakdown is in -json / the epoch CSV.
	if len(r.Histograms) > 0 {
		printed := false
		for _, name := range []string{"hierarchy.load_latency", "dram.queue_delay"} {
			h, ok := r.Histograms[name]
			if !ok || h.Count == 0 {
				continue
			}
			if !printed {
				fmt.Printf("\nlatency percentiles (cycles):\n")
				printed = true
			}
			fmt.Printf("  %-24s p50 %8.1f   p90 %8.1f   p99 %8.1f   (n=%d, mean %.1f)\n",
				name, h.P50, h.P90, h.P99, h.Count, float64(h.Sum)/float64(h.Count))
		}
	}

	if r.PartitionLimits == nil {
		return
	}
	fmt.Printf("\nadaptive sharing engine:\n")
	fmt.Printf("  evaluations %d, transfers %d, final limits (blocks/set per core) %v\n",
		r.Evaluations, r.Repartitions, r.PartitionLimits)
	fmt.Printf("  demotions %d, shared-hit swaps %d, neighbor migrations %d, evictions %d\n",
		r.Counters["adaptive.demotions"], r.Counters["adaptive.shared_swaps"],
		r.Counters["adaptive.neighbor_migrations"], r.Counters["adaptive.evictions"])
	fmt.Printf("  epochs recorded %d (dropped %d)\n", len(r.Epochs), r.EpochsDropped)

	// Latched limits (the ROADMAP's [5 5 1 1]-style signature): if the
	// partition never moved again over a substantial tail of the run,
	// say so — a user sweeping configurations should know the adaptive
	// engine froze early rather than kept adapting.
	if n := len(r.Epochs); n > 0 {
		last := r.Epochs[n-1]
		frozen := last.EpochsSinceLimitChange
		if r.Evaluations >= 20 && frozen >= r.Evaluations/2 {
			fmt.Printf("  warning: limits latched after evaluation %d — unchanged for the final %d of %d evaluations (see ROADMAP: gain-counter hysteresis)\n",
				r.Evaluations-frozen, frozen, r.Evaluations)
		}
	}

	// Partition history: every applied transfer, most recent last.
	const maxShown = 12
	var transfers []telemetry.EpochSample
	for _, e := range r.Epochs {
		if e.Transferred {
			transfers = append(transfers, e)
		}
	}
	if len(transfers) == 0 {
		return
	}
	shown := transfers
	if len(shown) > maxShown {
		fmt.Printf("  partition history (last %d of %d transfers):\n", maxShown, len(transfers))
		shown = shown[len(shown)-maxShown:]
	} else {
		fmt.Printf("  partition history (%d transfers):\n", len(transfers))
	}
	for _, e := range shown {
		fmt.Printf("    eval %-6d cycle %-10d core %d ← core %d   limits %v\n",
			e.Eval, e.Cycle, e.Gainer, e.Loser, e.Limits)
	}
}
