// Command artifactcheck validates the telemetry artifacts a run emits:
// the epoch CSV must parse with a well-formed header and at least one
// evaluation row, the JSONL trace must parse line by line with known
// event types and replayable repartition decisions, and the -span-out
// trace (-spans) must be schema-valid Chrome trace-event JSON — every
// track's B/E events properly nested with monotonic timestamps, with
// -spans-require optionally demanding specific span names. With
// -selfverify it additionally runs a short pinned-seed mixed-app
// adaptive simulation in replay-verify mode, cross-checking the
// trace-reconstructed per-set cache state against the live cache at
// every repartition epoch. With -servestore it fscks a nucaserve state
// directory, verifying every committed job and sweep entry against its
// integrity manifest without touching anything. Used by
// `make smoke` / `make ci`; exits non-zero with a diagnostic on any
// violation.
package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"

	"nucasim/internal/serve"
	"nucasim/internal/sim"
	"nucasim/internal/telemetry"
	"nucasim/internal/workload"
)

func main() {
	metrics := flag.String("metrics", "", "epoch CSV to validate")
	trace := flag.String("trace", "", "JSONL event trace to validate")
	spans := flag.String("spans", "", "Chrome trace-event span JSON (-span-out) to validate")
	spansRequire := flag.String("spans-require", "", "comma-separated span names that must appear in -spans")
	selfverify := flag.Bool("selfverify", false, "run a short adaptive simulation and cross-check replayed vs live cache state every epoch")
	resumesmoke := flag.Bool("resumesmoke", false, "interrupt a pinned adaptive run mid-measurement, resume it from its checkpoint, and require results bit-identical to the uninterrupted run")
	servestore := flag.String("servestore", "", "nucaserve state directory to fsck: verify every committed job and sweep entry against its manifest (read-only)")
	flag.Parse()

	if *metrics != "" {
		if err := checkMetrics(*metrics); err != nil {
			fatal("metrics %s: %v", *metrics, err)
		}
	}
	if *trace != "" {
		if err := checkTrace(*trace); err != nil {
			fatal("trace %s: %v", *trace, err)
		}
	}
	if *spans != "" {
		if err := checkSpans(*spans, *spansRequire); err != nil {
			fatal("spans %s: %v", *spans, err)
		}
	} else if *spansRequire != "" {
		fatal("-spans-require needs -spans")
	}
	if *selfverify {
		if err := checkSelfVerify(); err != nil {
			fatal("selfverify: %v", err)
		}
	}
	if *resumesmoke {
		if err := checkResumeSmoke(); err != nil {
			fatal("resumesmoke: %v", err)
		}
	}
	if *servestore != "" {
		if err := checkServeStore(*servestore); err != nil {
			fatal("servestore %s: %v", *servestore, err)
		}
	}
}

// checkServeStore is the offline fsck for a nucaserve state directory:
// every committed job and sweep entry must verify against its manifest.
// It is read-only — unlike the live server it reports corruption
// instead of quarantining it, so an operator can inspect the evidence
// in place.
func checkServeStore(dir string) error {
	store, err := serve.NewStore(dir)
	if err != nil {
		return err
	}
	n, errs := store.Fsck()
	for _, err := range errs {
		fmt.Fprintf(os.Stderr, "artifactcheck: %v\n", err)
	}
	if len(errs) > 0 {
		return fmt.Errorf("%d of %d entries fail integrity verification", len(errs), n)
	}
	fmt.Printf("artifactcheck: servestore ok — %d entries verified against their manifests\n", n)
	return nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "artifactcheck: "+format+"\n", args...)
	os.Exit(1)
}

func checkMetrics(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.Comment = '#'
	rows, err := r.ReadAll()
	if err != nil {
		return err
	}
	if len(rows) < 2 {
		return fmt.Errorf("want a header and at least one evaluation row, got %d rows", len(rows))
	}
	head := rows[0]
	col := map[string]int{}
	for i, name := range head {
		col[name] = i
	}
	for _, want := range []string{"eval", "cycle", "gainer", "loser", "transferred", "limit_0", "miss_rate_0"} {
		if _, ok := col[want]; !ok {
			return fmt.Errorf("header lacks column %q: %v", want, head)
		}
	}
	for i, row := range rows[1:] {
		if len(row) != len(head) {
			return fmt.Errorf("row %d has %d fields, header has %d", i+1, len(row), len(head))
		}
		eval, err := strconv.ParseUint(row[col["eval"]], 10, 64)
		if err != nil {
			return fmt.Errorf("row %d eval: %v", i+1, err)
		}
		if eval != uint64(i+1) {
			return fmt.Errorf("row %d has eval %d; rows must be consecutive from 1", i+1, eval)
		}
	}
	return nil
}

func checkTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	kinds := map[string]bool{}
	for _, k := range telemetry.Kinds() {
		kinds[k.String()] = true
	}
	line := 0
	for dec.More() {
		line++
		var e struct {
			Type string `json:"type"`
		}
		if err := dec.Decode(&e); err != nil {
			return fmt.Errorf("line %d: %v", line, err)
		}
		if !kinds[e.Type] {
			return fmt.Errorf("line %d: unknown event type %q (known: %s)",
				line, e.Type, strings.Join(kindNames(), ", "))
		}
	}
	if line == 0 {
		return fmt.Errorf("empty trace")
	}
	// The decisions must replay cleanly over the paper's initial limits.
	if _, err := f.Seek(0, 0); err != nil {
		return err
	}
	if _, err := telemetry.ReplayLimits(f, []int{3, 3, 3, 3}, ""); err != nil {
		return fmt.Errorf("replay: %v", err)
	}
	return nil
}

// checkSpans validates a -span-out artifact as Chrome trace-event JSON
// the way a trace viewer would consume it: the document must decode,
// every track (tid) must carry properly nested matched B/E pairs whose
// timestamps never go backwards, and — when require is non-empty —
// every named span must occur at least once.
func checkSpans(path, require string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var f struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
			Tid  uint64  `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("not trace-event JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		return fmt.Errorf("no trace events")
	}

	seen := map[string]int{}
	lastTs := map[uint64]float64{}
	stacks := map[uint64][]string{}
	spans := 0
	for i, ev := range f.TraceEvents {
		switch ev.Ph {
		case "M": // metadata carries no timestamp semantics
			continue
		case "B", "E":
		default:
			return fmt.Errorf("event %d: unsupported phase %q", i, ev.Ph)
		}
		if ev.Ts < lastTs[ev.Tid] {
			return fmt.Errorf("event %d (%s %q): ts %.3f precedes %.3f on tid %d",
				i, ev.Ph, ev.Name, ev.Ts, lastTs[ev.Tid], ev.Tid)
		}
		lastTs[ev.Tid] = ev.Ts
		if ev.Ph == "B" {
			seen[ev.Name]++
			spans++
			stacks[ev.Tid] = append(stacks[ev.Tid], ev.Name)
			continue
		}
		st := stacks[ev.Tid]
		if len(st) == 0 {
			return fmt.Errorf("event %d: E %q closes nothing on tid %d", i, ev.Name, ev.Tid)
		}
		if top := st[len(st)-1]; top != ev.Name {
			return fmt.Errorf("event %d: E %q does not match open span %q on tid %d", i, ev.Name, top, ev.Tid)
		}
		stacks[ev.Tid] = st[:len(st)-1]
	}
	for tid, st := range stacks {
		if len(st) != 0 {
			return fmt.Errorf("tid %d leaves %d spans open: %v", tid, len(st), st)
		}
	}

	var missing []string
	if require != "" {
		for _, name := range strings.Split(require, ",") {
			name = strings.TrimSpace(name)
			if name != "" && seen[name] == 0 {
				missing = append(missing, name)
			}
		}
	}
	if len(missing) > 0 {
		names := make([]string, 0, len(seen))
		for n := range seen {
			names = append(names, n)
		}
		return fmt.Errorf("required spans missing: %s (present: %s)",
			strings.Join(missing, ", "), strings.Join(names, ", "))
	}
	fmt.Printf("artifactcheck: spans ok — %d spans on %d tracks, all B/E pairs matched\n", spans, len(lastTs))
	return nil
}

// checkSelfVerify runs the replay self-verifier end to end: a pinned
// mixed-app adaptive run with a full trace teed into the replay state
// machine, compared against the live LLC at every repartition epoch.
// Any divergence — a missed event, a wrong LRU depth, a stale limit —
// fails the build before it can corrupt a debugging session.
func checkSelfVerify() error {
	var mix []workload.AppParams
	for _, name := range []string{"ammp", "swim", "lucas", "gzip"} {
		p, ok := workload.ByName(name)
		if !ok {
			return fmt.Errorf("workload %q missing from suite", name)
		}
		mix = append(mix, p)
	}
	r := sim.Run(sim.Config{
		Scheme: sim.SchemeAdaptive, Seed: 1,
		WarmupInstructions: 300_000, MeasureCycles: 150_000,
		ReplayVerify: true,
	}, mix)
	if r.ReplayVerifyError != "" {
		return fmt.Errorf("replayed cache state diverged from live state: %s", r.ReplayVerifyError)
	}
	if r.ReplayEpochsVerified == 0 {
		return fmt.Errorf("no repartition epochs verified (run too short?)")
	}
	fmt.Printf("artifactcheck: selfverify ok — %d epochs cross-checked on %s\n",
		r.ReplayEpochsVerified, strings.Join(r.Mix, ","))
	return nil
}

// checkResumeSmoke is the crash-safety smoke: the same pinned mixed-app
// adaptive run is executed twice, once straight through and once
// interrupted mid-measurement (checkpointing on the way out) and
// resumed from the checkpoint file. Partition limits, controller
// counters and the rendered epoch CSV must match byte for byte.
func checkResumeSmoke() error {
	var mix []workload.AppParams
	for _, name := range []string{"ammp", "swim", "lucas", "gzip"} {
		p, ok := workload.ByName(name)
		if !ok {
			return fmt.Errorf("workload %q missing from suite", name)
		}
		mix = append(mix, p)
	}
	base := sim.Config{
		Scheme: sim.SchemeAdaptive, Seed: 1,
		WarmupInstructions: 300_000, MeasureCycles: 150_000,
		Telemetry:       &telemetry.Config{Run: "resume-smoke"},
		CheckInvariants: true,
	}

	ref, err := sim.RunContext(context.Background(), base, mix)
	if err != nil {
		return fmt.Errorf("uninterrupted run: %w", err)
	}

	dir, err := os.MkdirTemp("", "nucasim-resumesmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "run.ckpt")
	cfg := base
	cfg.CheckpointPath = path
	cfg.StopAfter = 60_000
	if _, err := sim.RunContext(context.Background(), cfg, mix); !errors.Is(err, sim.ErrInterrupted) {
		return fmt.Errorf("interrupted run returned %v, want ErrInterrupted", err)
	}
	ck, err := sim.ReadCheckpoint(path)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	got, err := sim.ResumeFromCheckpoint(context.Background(), ck, nil)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}

	if !reflect.DeepEqual(got.PartitionLimits, ref.PartitionLimits) {
		return fmt.Errorf("final limits diverged: resumed %v, uninterrupted %v", got.PartitionLimits, ref.PartitionLimits)
	}
	if got.Repartitions != ref.Repartitions || got.Evaluations != ref.Evaluations {
		return fmt.Errorf("controller activity diverged: resumed %d/%d, uninterrupted %d/%d",
			got.Repartitions, got.Evaluations, ref.Repartitions, ref.Evaluations)
	}
	if !reflect.DeepEqual(got.Counters, ref.Counters) {
		return fmt.Errorf("counters diverged:\nresumed       %v\nuninterrupted %v", got.Counters, ref.Counters)
	}
	var refCSV, gotCSV bytes.Buffer
	if err := telemetry.WriteEpochCSV(&refCSV, ref.Epochs); err != nil {
		return err
	}
	if err := telemetry.WriteEpochCSV(&gotCSV, got.Epochs); err != nil {
		return err
	}
	if !bytes.Equal(refCSV.Bytes(), gotCSV.Bytes()) {
		return fmt.Errorf("epoch CSV diverged: %d vs %d bytes (%d vs %d epochs)",
			gotCSV.Len(), refCSV.Len(), len(got.Epochs), len(ref.Epochs))
	}
	fmt.Printf("artifactcheck: resumesmoke ok — interrupted at %d of %d cycles, resumed run bit-identical (%d epochs, limits %v)\n",
		cfg.StopAfter, cfg.MeasureCycles, len(got.Epochs), got.PartitionLimits)
	return nil
}

func kindNames() []string {
	var names []string
	for _, k := range telemetry.Kinds() {
		names = append(names, k.String())
	}
	return names
}
