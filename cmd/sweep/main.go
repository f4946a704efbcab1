// Command sweep runs parameter sweeps around the paper's design points,
// either in-process or by submitting to a running nucaserve:
//
//	sweep -kind capacity         # scheme × L3 bytes per core (Fig. 7 vs 9)
//	sweep -kind period           # adaptive re-evaluation period (paper: 2000 misses)
//	sweep -kind ways             # Figure 3-style associativity sweep for one app
//	sweep -spec study.json       # arbitrary sweep spec (same schema as POST /v1/sweeps)
//	sweep -spec study.json -server http://127.0.0.1:8080
//
// Grid sweeps (everything except -kind ways) go through the shared
// sweep engine: the spec expands to canonical points, the points sharing
// a warmup hash run as one run that warms once and harvests each point's
// window on the way to the longest, and results aggregate into one
// table of harmonic-mean IPC and supporting metrics per point. With
// -server the same spec is POSTed to nucaserve, which
// dedupes points against its result cache; the CLI polls the sweep to
// completion and renders the downloaded table identically. The ways
// sweep stays a client-side analytic study over the shadow-tag
// miss-ratio curves (associativity is a geometry constant of the flat
// arena, so it is not a server axis).
//
// Observability flags mirror cmd/experiments: -json (table as JSON),
// -metrics-out (table as CSV), -trace-out (JSONL sharing-engine events
// of each locally simulated group run, warmup included, labelled with
// its longest point), -span-out (Perfetto-loadable wall-clock spans, one
// "sweep.group <label>" span per group run, named the same way),
// -cpuprofile/-memprofile (pprof), and a wall-clock /
// simulated-cycles-per-second footer on stderr.
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

	"nucasim/internal/experiment"
	"nucasim/internal/serve"
	"nucasim/internal/sim"
	"nucasim/internal/stats"
	"nucasim/internal/sweep"
	"nucasim/internal/telemetry"
	"nucasim/internal/tools/cliflags"
	"nucasim/internal/workload"
)

func main() {
	kind := flag.String("kind", "capacity", "capacity|period|ways")
	apps := flag.String("apps", "ammp,gzip,swim,twolf", "mix for capacity/period sweeps")
	app := flag.String("app", "gzip", "application for the ways sweep")
	seed := flag.Uint64("seed", 1, "simulation seed")
	warmup := flag.Uint64("warmup-instrs", 1_000_000, "functional warmup per core")
	cycles := flag.Uint64("cycles", 600_000, "measured cycles")
	specPath := flag.String("spec", "", "sweep spec JSON file (same schema as POST /v1/sweeps; overrides -kind)")
	server := flag.String("server", "", "submit to a running nucaserve at this base URL instead of simulating in-process")
	maxPoints := flag.Int("max-points", 0, "local grid-size cap (0 = engine default; the server enforces its own)")
	flag.BoolVar(&checkInvariants, "check-invariants", false, "verify adaptive-scheme structural invariants at every repartition epoch (aborts on violation)")
	common := cliflags.Register(flag.CommandLine, cliflags.Spec{
		Command:      "sweep",
		JSONUsage:    "emit the sweep table as JSON instead of text",
		MetricsUsage: "write the sweep table as CSV to this file",
		TraceUsage:   "stream adaptive runs' sharing-engine events (JSONL) to this file",
		SpanUsage:    "write wall-clock phase spans as Chrome trace-event JSON (Perfetto-loadable) to this file",
		Profiles:     true,
	})
	flag.Parse()

	session, err := common.Open(false)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	start := time.Now()
	cyclesBefore := sim.CyclesSimulated()

	var t *stats.Table
	var footer string
	switch {
	case *specPath == "" && *kind == "ways":
		if *server != "" {
			fatal(session, fmt.Errorf("sweep: the ways sweep is a client-side analytic study; it has no server mode"))
		}
		sweepSpan := session.StartSpan("sweep.ways")
		t = sweepWays(*app, *seed, session, sweepSpan.ID())
		sweepSpan.End()
	default:
		spec, note, err := buildSpec(*specPath, *kind, *apps, *seed, *warmup, *cycles)
		if err != nil {
			fatal(session, err)
		}
		footer = note
		if *server != "" {
			t, err = runRemote(*server, spec)
		} else {
			t, err = runLocal(spec, *maxPoints, session)
		}
		if err != nil {
			fatal(session, err)
		}
	}

	if common.JSON {
		b, err := json.Marshal(t)
		if err != nil {
			fatal(session, err)
		}
		fmt.Println(string(b))
	} else {
		fmt.Println(t)
		if footer != "" {
			fmt.Println(footer)
		}
	}
	if err := common.WriteMetricsFile(t.WriteCSV); err != nil {
		fatal(session, err)
	}

	tp := telemetry.Throughput{
		Wall:      time.Since(start),
		SimCycles: sim.CyclesSimulated() - cyclesBefore,
	}
	fmt.Fprintf(os.Stderr, "# sweep: %s\n", tp)

	if err := session.Close(true); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

func fatal(session *cliflags.Session, err error) {
	fmt.Fprintln(os.Stderr, err)
	session.Close(false)
	os.Exit(1)
}

// checkInvariants mirrors the -check-invariants flag into every adaptive
// sweep point's sim.Config.
var checkInvariants bool

// buildSpec resolves the sweep spec: from -spec when given, otherwise
// from the named preset. The returned note is a human footer for the
// text rendering.
func buildSpec(path, kind, apps string, seed, warmup, cycles uint64) (sweep.Spec, string, error) {
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return sweep.Spec{}, "", err
		}
		spec, err := sweep.ParseSpec(data)
		if err != nil {
			return sweep.Spec{}, "", fmt.Errorf("%s: %w", path, err)
		}
		return spec, "", nil
	}
	base := sweep.Base{
		Apps:               splitApps(apps),
		Seed:               seed,
		WarmupInstructions: warmup,
		MeasureCycles:      cycles,
	}
	switch kind {
	case "capacity":
		return sweep.Spec{
			Name: "capacity sweep: scheme vs L3 bytes per core",
			Base: base,
			Axes: sweep.Axes{
				Scheme:         []string{"private", "shared", "adaptive"},
				L3BytesPerCore: []int{512 << 10, 1 << 20, 2 << 20, 4 << 20},
			},
		}, "", nil
	case "period":
		base.Scheme = "adaptive"
		return sweep.Spec{
			Name: "re-evaluation period sweep (adaptive)",
			Base: base,
			Axes: sweep.Axes{RepartitionPeriod: []int{250, 500, 1000, 2000, 4000, 8000}},
		}, "(paper §2.1 uses 2000 misses: long enough to measure, short enough to adapt)", nil
	default:
		return sweep.Spec{}, "", fmt.Errorf("unknown sweep kind: %s", kind)
	}
}

func splitApps(csv string) []string {
	var apps []string
	for _, name := range strings.Split(csv, ",") {
		apps = append(apps, strings.TrimSpace(name))
	}
	return apps
}

// runLocal expands and executes the sweep in-process via the shared
// engine, so warmup forking works identically to the server's schedule.
func runLocal(spec sweep.Spec, maxPoints int, session *cliflags.Session) (*stats.Table, error) {
	points, err := sweep.Expand(spec, maxPoints)
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
	st, err := postSweep(base, body)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "# sweep %.12s: %d points (%d cached, %d warmup groups, %d forked)\n",
		st.ID, st.Points, st.CachedPoints, st.WarmupGroups, st.ForkedPoints)

	lastResolved := -1
	for st.State == serve.SweepPending {
		time.Sleep(250 * time.Millisecond)
		st, err = getJSON[serve.SweepStatus](base + "/v1/sweeps/" + st.ID)
		if err != nil {
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

	resp, err := http.Get(base + "/v1/sweeps/" + st.ID + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("downloading sweep table: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var t stats.Table
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("parsing sweep table: %w", err)
	}
	return &t, nil
}

func postSweep(base string, body []byte) (serve.SweepStatus, error) {
	resp, err := http.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.SweepStatus{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return serve.SweepStatus{}, err
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return serve.SweepStatus{}, fmt.Errorf("submitting sweep: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var st serve.SweepStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return serve.SweepStatus{}, fmt.Errorf("parsing sweep status: %w", err)
	}
	return st, nil
}

func getJSON[T any](url string) (T, error) {
	var v T
	resp, err := http.Get(url)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return v, fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return v, err
	}
	return v, nil
}

func sweepWays(app string, seed uint64, session *cliflags.Session, parent telemetry.SpanID) *stats.Table {
	p, ok := workload.ByName(app)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown application %q\n", app)
		os.Exit(2)
	}
	t := stats.NewTable(fmt.Sprintf("Figure 3-style sweep for %s: L3 miss ratio vs ways", app), "miss ratio")
	for _, w := range []int{1, 2, 3, 4, 5, 6, 8, 12, 16} {
		label := fmt.Sprintf("%d-way", w)
		sp := session.Spans.StartSpan("sweep.point "+label, parent)
		t.AddRow(label, experiment.MissRatioAtWays(p, w, seed))
		sp.End()
	}
	return t
}
