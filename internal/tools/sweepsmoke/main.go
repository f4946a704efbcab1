// Command sweepsmoke is the CI smoke test for the sweep orchestration
// service: it drives a real nucaserve binary through an 8-point sweep
// whose points share one warmup group and proves the two properties
// warmup forking exists for —
//
//  1. the shared warmup runs exactly once (asserted from the /metrics
//     telemetry counters: serve_sweep_warmups_run and
//     serve_sweep_points_forked);
//  2. forking is invisible in the results: every forked point's
//     committed result.json is byte-identical to a cold in-process
//     sim.Run of the same canonical spec.
//
// It also checks that no fork checkpoint (jobs/*/checkpoint.bin)
// outlives its point's commit, checks the aggregated table artifacts
// (one row per point, in both JSON and CSV forms), and leaves the state directory behind when
// -state is given, so `make sweep-smoke` can fsck it with
// artifactcheck -servestore.
//
//	sweepsmoke -bin /tmp/nucaserve -state /tmp/sweepsmoke-state
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"nucasim/internal/serve"
	"nucasim/internal/sim"
	"nucasim/internal/sweep"
	"nucasim/internal/telemetry"
	"nucasim/internal/tools/smoke"
)

// smokeSpec expands to 8 points differing only in MeasureCycles — one
// warmup group, every point forked.
var smokeSpec = sweep.Spec{
	Name: "sweepsmoke",
	Base: sweep.Base{
		Scheme:             "adaptive",
		Apps:               []string{"ammp", "swim"},
		Seed:               7,
		WarmupInstructions: 200_000,
		WarmupCycles:       20_000,
	},
	Axes: sweep.Axes{
		MeasureCycles: []uint64{10_000, 20_000, 30_000, 40_000, 50_000, 60_000, 70_000, 80_000},
	},
}

func main() {
	bin := flag.String("bin", "/tmp/nucaserve", "path to the nucaserve binary under test")
	state := flag.String("state", "", "state directory (kept for post-hoc fsck; a discarded temp dir when empty)")
	flag.Parse()

	if *state == "" {
		work, err := os.MkdirTemp("", "sweepsmoke-*")
		if err != nil {
			smoke.Fatal(err)
		}
		defer os.RemoveAll(work)
		*state = work
	}
	addrFile := *state + "/addr"

	base := smoke.Start(*bin, *state, addrFile)

	body, err := json.Marshal(smokeSpec)
	if err != nil {
		smoke.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		smoke.Fatal(err)
	}
	var st serve.SweepStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		smoke.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		smoke.Fatal(fmt.Errorf("submit: HTTP %d, want 202", resp.StatusCode))
	}
	if st.Points != 8 || st.WarmupGroups != 1 || st.ForkedPoints != 8 {
		smoke.Fatal(fmt.Errorf("schedule = %d points, %d warmup groups, %d forked — want 8/1/8", st.Points, st.WarmupGroups, st.ForkedPoints))
	}

	deadline := time.Now().Add(120 * time.Second)
	for st.State == serve.SweepPending {
		if time.Now().After(deadline) {
			smoke.Fatal(fmt.Errorf("sweep never settled (resolved %d/%d)", st.Resolved, st.Points))
		}
		time.Sleep(50 * time.Millisecond)
		if err := json.Unmarshal(smoke.Get(base+"/v1/sweeps/"+st.ID, http.StatusOK), &st); err != nil {
			smoke.Fatal(err)
		}
	}
	if st.State != serve.SweepDone {
		smoke.Fatal(fmt.Errorf("sweep ended %s: %s", st.State, st.Error))
	}

	// Guarantee 1: the group's warmup ran exactly once, and all 8 points
	// resumed from its checkpoint.
	metrics := string(smoke.Get(base+"/metrics", http.StatusOK))
	requireCounter(metrics, "serve_sweep_warmups_run", 1)
	requireCounter(metrics, "serve_sweep_points_forked", 8)
	requireCounter(metrics, "serve_sweep_fork_fallbacks", 0)
	requireCounter(metrics, "serve_sweep_warmup_failures", 0)

	// Each point's fork checkpoint is dropped once its result commits.
	if leaked, _ := filepath.Glob(filepath.Join(*state, "jobs", "*", "checkpoint.bin")); len(leaked) > 0 {
		smoke.Fatal(fmt.Errorf("%d checkpoint.bin files left after the sweep completed: %v", len(leaked), leaked))
	}

	// Guarantee 2: forking is invisible — every point's served artifact
	// is byte-identical to a cold end-to-end run of the same spec.
	points, err := sweep.Expand(smokeSpec, 0)
	if err != nil {
		smoke.Fatal(err)
	}
	if len(points) != len(st.PointJobs) {
		smoke.Fatal(fmt.Errorf("local expansion disagrees with the server: %d vs %d points", len(points), len(st.PointJobs)))
	}
	for i, ps := range st.PointJobs {
		if !ps.Forked {
			smoke.Fatal(fmt.Errorf("point %q did not fork", ps.Label))
		}
		got := smoke.Get(base+"/v1/jobs/"+ps.JobID+"/result", http.StatusOK)
		cfg := points[i].Cfg
		cfg.Telemetry = &telemetry.Config{Run: ps.JobID}
		want, err := serve.EncodeResult(sim.Run(cfg, points[i].Mix))
		if err != nil {
			smoke.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			smoke.Fatal(fmt.Errorf("point %q: forked result.json differs from a cold run (%d vs %d bytes)", ps.Label, len(got), len(want)))
		}
	}

	// The aggregate artifacts: one row per point, JSON and CSV agreeing
	// on shape.
	var table struct {
		Title string `json:"title"`
		Rows  []struct {
			Label string `json:"label"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(smoke.Get(base+"/v1/sweeps/"+st.ID+"/result", http.StatusOK), &table); err != nil {
		smoke.Fatal(fmt.Errorf("table.json does not parse: %w", err))
	}
	if table.Title != "sweepsmoke" || len(table.Rows) != 8 {
		smoke.Fatal(fmt.Errorf("table = %q with %d rows, want sweepsmoke with 8", table.Title, len(table.Rows)))
	}
	csv := smoke.Get(base+"/v1/sweeps/"+st.ID+"/result?artifact=csv", http.StatusOK)
	if lines := bytes.Count(csv, []byte("\n")); lines != 10 { // title comment + header + 8 rows
		smoke.Fatal(fmt.Errorf("table.csv has %d lines, want 10", lines))
	}

	smoke.Stop()
	fmt.Println("sweepsmoke ok: 8-point sweep, warmup ran once, 8 forks byte-identical to cold runs, table committed")
}

// requireCounter asserts one exact "name value" sample in the /metrics
// exposition — exact, because "warmup ran approximately once" would
// defeat the point of the smoke.
func requireCounter(metrics, name string, want int) {
	for _, line := range strings.Split(metrics, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			if fields[1] != fmt.Sprint(want) {
				smoke.Fatal(fmt.Errorf("%s = %s, want %d", name, fields[1], want))
			}
			return
		}
	}
	smoke.Fatal(fmt.Errorf("/metrics does not expose %s", name))
}
