// Command artifactcheck validates the telemetry artifacts a run emits:
// the epoch CSV must parse with a well-formed header and at least one
// evaluation row, the JSONL trace must parse line by line with known
// event types and replayable repartition decisions, and the -span-out
// trace (-spans) must be schema-valid Chrome trace-event JSON — every
// track's B/E events properly nested with monotonic timestamps, with
// -spans-require optionally demanding specific span names. With
// -servestore it fscks a nucaserve state directory, verifying every
// committed job and sweep entry against its integrity manifest without
// touching anything. Used by `make smoke` / `make ci`; exits non-zero
// with a diagnostic on any violation.
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"nucasim/internal/serve"
	"nucasim/internal/telemetry"
)

func main() {
	metrics := flag.String("metrics", "", "epoch CSV to validate")
	trace := flag.String("trace", "", "JSONL event trace to validate")
	spans := flag.String("spans", "", "Chrome trace-event span JSON (-span-out) to validate")
	spansRequire := flag.String("spans-require", "", "comma-separated span names that must appear in -spans")
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

func kindNames() []string {
	var names []string
	for _, k := range telemetry.Kinds() {
		names = append(names, k.String())
	}
	return names
}
