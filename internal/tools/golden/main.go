// Command golden generates the pinned-seed regression baseline under
// testdata/golden/: the adaptive scheme's epoch time-series CSV, a JSON
// summary of the run's deterministic outcomes (final partition limits,
// evaluation/transfer counts, LLC totals), and the same summary for
// every baseline organization on the same seed and mix (schemes.json),
// and the tables of the paper's simulated figures at a small pinned
// scale (figures.json). The simulator is fully deterministic for a
// fixed seed and mix — TestTraceDeterministic pins that property — so
// any diff against these files is a behaviour change that must be
// either fixed or deliberately re-baselined with `make golden`.
//
// Only deterministic fields go into the summary: throughput and other
// wall-clock readings are excluded so the artifacts are byte-stable
// across machines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"nucasim/internal/atomicio"
	"nucasim/internal/experiment"
	"nucasim/internal/llc"
	"nucasim/internal/sim"
	"nucasim/internal/stats"
	"nucasim/internal/telemetry"
	"nucasim/internal/workload"
)

// The pinned scenario. Changing any of these constants invalidates the
// committed baseline — regenerate it in the same commit.
const (
	goldenSeed    = 1
	goldenApps    = "ammp,swim,lucas,gzip"
	goldenWarmup  = 400_000
	goldenCycles  = 200_000
	goldenEpochs  = 1 << 16 // far above the evaluation count: nothing may drop
	goldenVersion = 1       // bump when the summary schema changes shape
)

// figureOptions is the pinned scale of figures.json: two mixes per
// figure and short windows, so the whole set runs in seconds.
var figureOptions = experiment.Options{
	Seed: 42, Mixes: 2,
	WarmupInstructions: 100_000, WarmupCycles: 10_000, MeasureCycles: 50_000,
}

// summary is the deterministic slice of sim.Result that the baseline
// pins. Fields are value-stable across machines and Go versions.
type summary struct {
	Version          int             `json:"version"`
	Scheme           string          `json:"scheme"`
	Mix              []string        `json:"mix"`
	Seed             uint64          `json:"seed"`
	WarmupInstrs     uint64          `json:"warmup_instrs"`
	MeasureCycles    uint64          `json:"measure_cycles"`
	Evaluations      uint64          `json:"evaluations"`
	Transfers        uint64          `json:"transfers"`
	PartitionLimits  []int           `json:"partition_limits"`
	LLC              llc.AccessStats `json:"llc"`
	MemoryReads      uint64          `json:"memory_reads"`
	MemoryWritebacks uint64          `json:"memory_writebacks"`
	ReplayEpochs     uint64          `json:"replay_epochs_verified"`
}

func main() {
	out := flag.String("out", "testdata/golden", "directory to write epoch.csv, limits.json, schemes.json and figures.json into")
	flag.Parse()

	var mix []workload.AppParams
	for _, name := range strings.Split(goldenApps, ",") {
		p, ok := workload.ByName(name)
		if !ok {
			fatal("workload %q missing from suite", name)
		}
		mix = append(mix, p)
	}

	r := sim.Run(sim.Config{
		Scheme: sim.SchemeAdaptive, Seed: goldenSeed,
		WarmupInstructions: goldenWarmup, MeasureCycles: goldenCycles,
		Telemetry:    &telemetry.Config{EpochCapacity: goldenEpochs},
		ReplayVerify: true,
	}, mix)
	if r.ReplayVerifyError != "" {
		fatal("baseline run failed replay self-verify: %s", r.ReplayVerifyError)
	}
	if r.EpochsDropped > 0 {
		fatal("epoch ring dropped %d samples; baseline would be truncated", r.EpochsDropped)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal("%v", err)
	}
	csvPath := filepath.Join(*out, "epoch.csv")
	if err := atomicio.WriteFile(csvPath, func(w io.Writer) error {
		return telemetry.WriteEpochCSV(w, r.Epochs)
	}); err != nil {
		fatal("write %s: %v", csvPath, err)
	}

	s := summarize(r)
	s.ReplayEpochs = r.ReplayEpochsVerified
	jsonPath := filepath.Join(*out, "limits.json")
	writeJSON(jsonPath, s)

	// The baselines have no partitioning state and no replay verifier:
	// their summaries pin the LLC and memory outcomes only.
	var baselines []summary
	for _, scheme := range []sim.Scheme{sim.SchemePrivate, sim.SchemeShared, sim.SchemePrivate4x, sim.SchemeCoop} {
		baselines = append(baselines, summarize(sim.Run(sim.Config{
			Scheme: scheme, Seed: goldenSeed,
			WarmupInstructions: goldenWarmup, MeasureCycles: goldenCycles,
		}, mix)))
	}
	schemesPath := filepath.Join(*out, "schemes.json")
	writeJSON(schemesPath, baselines)

	figures := figureTables(figureOptions)
	figuresPath := filepath.Join(*out, "figures.json")
	writeJSON(figuresPath, figures)

	fmt.Printf("golden: wrote %s (%d epochs), %s (limits %v, %d/%d transfers), %s (%d schemes) and %s (%d tables)\n",
		csvPath, len(r.Epochs), jsonPath, s.PartitionLimits, s.Transfers, s.Evaluations, schemesPath, len(baselines),
		figuresPath, len(figures))
}

// figureTables runs every simulated figure of cmd/experiments (Figure 3
// is an analytic probe, not a simulation) and returns their tables in
// the order `experiments all` prints them.
func figureTables(opt experiment.Options) []*stats.Table {
	return []*stats.Table{
		experiment.Fig5(opt),
		experiment.Fig6(opt).Table,
		experiment.Fig7(opt),
		experiment.Fig8(opt),
		experiment.Fig9(opt),
		experiment.Fig10(opt).Table,
		experiment.Fig11(opt),
		experiment.Fig12(opt),
		experiment.ShadowSampling(opt).Table,
		experiment.Anecdote(opt).Table,
		experiment.CoreScaling(opt).Table,
		experiment.ParallelWorkloads(opt).Table,
	}
}

// summarize keeps the deterministic fields of one run.
func summarize(r sim.Result) summary {
	return summary{
		Version: goldenVersion,
		Scheme:  string(r.Scheme), Mix: r.Mix, Seed: goldenSeed,
		WarmupInstrs: goldenWarmup, MeasureCycles: goldenCycles,
		Evaluations: r.Evaluations, Transfers: r.Repartitions,
		PartitionLimits: r.PartitionLimits,
		LLC:             r.LLCTotal,
		MemoryReads:     r.Memory.Reads, MemoryWritebacks: r.Memory.Writebacks,
	}
}

// writeJSON writes v as indented JSON, atomically.
func writeJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatal("%v", err)
	}
	if err := atomicio.WriteFile(path, func(w io.Writer) error {
		_, werr := w.Write(append(data, '\n'))
		return werr
	}); err != nil {
		fatal("write %s: %v", path, err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "golden: "+format+"\n", args...)
	os.Exit(1)
}
