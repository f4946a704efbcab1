package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"nucasim/internal/sim"
	"nucasim/internal/sweep"
	"nucasim/internal/telemetry"
)

// smallSweep is a 4-point measurement-window study over one warmup
// group: the canonical shared-warmup shape.
func smallSweep(seed uint64) sweep.Spec {
	return sweep.Spec{
		Name: "mc-study",
		Base: sweep.Base{
			Scheme:             "adaptive",
			Apps:               []string{"ammp", "swim"},
			Seed:               seed,
			WarmupInstructions: 200_000,
			WarmupCycles:       20_000,
		},
		Axes: sweep.Axes{MeasureCycles: []uint64{30_000, 60_000, 90_000, 120_000}},
	}
}

func submitSweep(t *testing.T, ts *httptest.Server, spec sweep.Spec) (SweepStatus, *http.Response) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st SweepStatus
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding sweep submit response: %v", err)
		}
	}
	return st, resp
}

func getSweep(t *testing.T, ts *httptest.Server, id string) SweepStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET sweep: HTTP %d", resp.StatusCode)
	}
	var st SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSweepForkIdentity is the tentpole guarantee end to end: an
// N-point sweep whose points share a warmup group runs warmup exactly
// once, forks every measurement window from the shared checkpoint, and
// every forked point's committed result.json is byte-identical to a
// direct cold sim.Run of the same spec. The aggregate table then lands
// as committed, re-servable artifacts.
func TestSweepForkIdentity(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{StateDir: dir, Workers: 2})

	spec := smallSweep(11)
	st, resp := submitSweep(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit sweep: HTTP %d, want 202", resp.StatusCode)
	}
	if st.ID == "" || st.State != SweepPending || st.Points != 4 {
		t.Fatalf("submit status = %+v", st)
	}
	if st.WarmupGroups != 1 || st.ForkedPoints != 4 {
		t.Fatalf("fork schedule = %d groups / %d forked points, want 1/4", st.WarmupGroups, st.ForkedPoints)
	}

	waitFor(t, "sweep done", func() bool { return getSweep(t, ts, st.ID).State == SweepDone })
	final := getSweep(t, ts, st.ID)

	if got := counter(s, "serve.sweep_warmups_run"); got != 1 {
		t.Errorf("serve.sweep_warmups_run = %d, want exactly 1", got)
	}
	if got := counter(s, "serve.sweep_points_forked"); got != 4 {
		t.Errorf("serve.sweep_points_forked = %d, want 4", got)
	}
	if got := counter(s, "serve.sweep_fork_fallbacks"); got != 0 {
		t.Errorf("serve.sweep_fork_fallbacks = %d, want 0", got)
	}
	if final.Done != 4 || final.Resolved != 4 {
		t.Errorf("final counts = %+v", final)
	}

	// Every point forked, and its served artifact matches a cold run.
	points, err := sweep.Expand(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, ps := range final.PointJobs {
		if ps.State != StateDone || !ps.Forked {
			t.Errorf("point %q: state %s forked=%v, want done/forked", ps.Label, ps.State, ps.Forked)
		}
		got := fetch(t, ts.URL+"/v1/jobs/"+ps.JobID+"/result", http.StatusOK)
		cfg := points[i].Cfg
		cfg.Telemetry = &telemetry.Config{Run: ps.JobID}
		want, err := EncodeResult(sim.Run(cfg, points[i].Mix))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("point %q: forked result.json differs from a cold sim.Run encoding", ps.Label)
		}
	}

	// The aggregate artifacts are committed and parse.
	tableJSON := fetch(t, ts.URL+"/v1/sweeps/"+st.ID+"/result", http.StatusOK)
	var table struct {
		Title   string   `json:"title"`
		Columns []string `json:"columns"`
		Rows    []struct {
			Label  string    `json:"label"`
			Values []float64 `json:"values"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(tableJSON, &table); err != nil {
		t.Fatalf("table.json does not parse: %v", err)
	}
	if table.Title != "mc-study" || len(table.Rows) != 4 {
		t.Fatalf("table = %q with %d rows, want mc-study with 4", table.Title, len(table.Rows))
	}
	csv := fetch(t, ts.URL+"/v1/sweeps/"+st.ID+"/result?artifact=csv", http.StatusOK)
	if lines := strings.Count(string(csv), "\n"); lines != 6 { // title comment + header + 4 rows
		t.Errorf("table.csv has %d lines, want 6", lines)
	}

	// Same-process resubmission dedupes onto the finished sweep.
	st2, resp2 := submitSweep(t, ts, spec)
	if resp2.StatusCode != http.StatusOK || st2.ID != st.ID || st2.State != SweepDone {
		t.Fatalf("resubmit: HTTP %d, status %+v", resp2.StatusCode, st2)
	}

	// A fresh server over the same state directory answers the whole
	// sweep from the committed entry without simulating anything.
	cyclesBefore := sim.CyclesSimulated()
	_, ts2 := newTestServer(t, Options{StateDir: dir})
	st3, resp3 := submitSweep(t, ts2, spec)
	if resp3.StatusCode != http.StatusOK || !st3.Cached || st3.State != SweepDone {
		t.Fatalf("cross-process resubmit: HTTP %d, status %+v", resp3.StatusCode, st3)
	}
	if got := fetch(t, ts2.URL+"/v1/sweeps/"+st3.ID+"/result", http.StatusOK); !bytes.Equal(got, tableJSON) {
		t.Error("cache-hit sweep table differs from the original commit")
	}
	if d := sim.CyclesSimulated() - cyclesBefore; d != 0 {
		t.Errorf("cached sweep simulated %d cycles; want 0", d)
	}
}

// TestSweepMixedSchemes pins the schedule of a grid over two schemes:
// each scheme's points form one warmup group, every point forks its
// group's warmup, baseline and adaptive alike, and commits the result
// of a cold run.
func TestSweepMixedSchemes(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	spec := smallSweep(13)
	spec.Axes.Scheme = []string{"shared", "adaptive"}
	spec.Axes.MeasureCycles = []uint64{30_000, 60_000}

	st, resp := submitSweep(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if st.Points != 4 || st.WarmupGroups != 2 || st.ForkedPoints != 4 {
		t.Fatalf("schedule = %+v, want 4 points, 2 groups, 4 forked", st)
	}
	waitFor(t, "sweep done", func() bool { return getSweep(t, ts, st.ID).State == SweepDone })
	if got := counter(s, "serve.sweep_warmups_run"); got != 2 {
		t.Errorf("serve.sweep_warmups_run = %d, want 2", got)
	}
	for _, ps := range getSweep(t, ts, st.ID).PointJobs {
		if !ps.Forked {
			t.Errorf("point %q did not fork its group's warmup", ps.Label)
		}
	}
	requirePointsMatchCold(t, s, spec)
}

// TestSweepRejectsMalformedSpecs: satellite guarantee that bad sweep
// specs die at the door with 400 and a descriptive error, before any
// work is enqueued.
func TestSweepRejectsMalformedSpecs(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, MaxSweepPoints: 3})
	cases := []struct {
		name string
		body string
		want string
	}{
		{"invalid JSON", `{`, "invalid sweep spec"},
		{"unknown field", `{"bases": {}}`, "invalid sweep spec"},
		{"no apps", `{"base": {"seed": 1}}`, "at least 2 apps"},
		{"empty axis", `{"base": {"apps": ["ammp", "swim"]}, "axes": {"seed": []}}`, `axis "seed" is empty`},
		{"unknown app", `{"base": {"apps": ["ammp", "quake3"]}}`, "unknown application"},
		{"duplicate points", `{"base": {"apps": ["ammp", "swim"]}, "axes": {"seed": [4, 4]}}`, "duplicate point"},
		{"over cap", `{"base": {"apps": ["ammp", "swim"]}, "axes": {"seed": [1, 2, 3, 4]}}`, "grid has 4 points, cap is 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var body struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("HTTP %d (%s), want 400", resp.StatusCode, body.Error)
			}
			if !strings.Contains(body.Error, tc.want) {
				t.Errorf("error %q does not mention %q", body.Error, tc.want)
			}
		})
	}
	if got := counter(s, "serve.sweeps_submitted"); got != 0 {
		t.Errorf("rejected specs counted as submissions: %d", got)
	}
}

// TestSubmitRejectsTrailingData: a submit body is exactly one JSON
// value. Input after it is a 400 on both endpoints, never a silently
// ignored suffix; a trailing newline (what json.Encoder writes) is fine.
func TestSubmitRejectsTrailingData(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	job, _ := json.Marshal(smallJob(1))
	spec, _ := json.Marshal(smallSweep(1))
	for _, ep := range []struct {
		path string
		body []byte
	}{{"/v1/jobs", job}, {"/v1/sweeps", spec}} {
		for _, tail := range []string{" trailing-garbage", `{"x":1}`} {
			resp, err := http.Post(ts.URL+ep.path, "application/json", strings.NewReader(string(ep.body)+tail))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("POST %s with %q appended: HTTP %d, want 400", ep.path, tail, resp.StatusCode)
			}
		}
	}
	if n := counter(s, "serve.jobs_submitted") + counter(s, "serve.sweeps_submitted"); n != 0 {
		t.Fatalf("bodies with trailing data were accepted: %d submissions", n)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(job)+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("POST /v1/jobs with a trailing newline: HTTP %d, want 202", resp.StatusCode)
	}
}

// TestSweepCancelMidFanout: DELETE while the fan-out is in flight
// cancels the pending points, settles the sweep as canceled, and
// releases its on-disk entry so a restart cannot resurrect it.
func TestSweepCancelMidFanout(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	spec := smallSweep(17)
	// Long measurement windows: the first forked point occupies the only
	// worker while the rest wait, so the DELETE lands mid-fan-out.
	spec.Axes.MeasureCycles = []uint64{30_000_000, 31_000_000, 32_000_000}

	st, resp := submitSweep(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	// Wait until the shared warmup has run and the first fork is on the
	// worker — genuinely mid-fan-out, not pre-warmup.
	waitFor(t, "first fork running", func() bool {
		if counter(s, "serve.sweep_warmups_run") != 1 {
			return false
		}
		for _, ps := range getSweep(t, ts, st.ID).PointJobs {
			if ps.State == StateRunning {
				return true
			}
		}
		return false
	})

	dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: HTTP %d", dresp.StatusCode)
	}

	waitFor(t, "sweep canceled", func() bool { return getSweep(t, ts, st.ID).State == SweepCanceled })
	final := getSweep(t, ts, st.ID)
	for _, ps := range final.PointJobs {
		if ps.State != StateCanceled {
			t.Errorf("point %q ended %s, want canceled", ps.Label, ps.State)
		}
	}
	if _, err := os.Stat(s.Store().path(sweepKind, st.ID, specFile)); !os.IsNotExist(err) {
		t.Error("canceled sweep left its store entry behind (would rerun on restart)")
	}
	// The sweep's result is, correctly, not servable.
	fetch(t, ts.URL+"/v1/sweeps/"+st.ID+"/result", http.StatusConflict)
}

// TestSweepEventsStream: the NDJSON stream carries monotonically
// progressing sweep status lines and ends when the sweep settles.
func TestSweepEventsStream(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	st, resp := submitSweep(t, ts, smallSweep(19))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	eresp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	if got := eresp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Fatalf("events Content-Type = %q", got)
	}
	dec := json.NewDecoder(eresp.Body)
	var lines int
	var last SweepStatus
	prevResolved := -1
	for {
		var ev sweepEvent
		if err := dec.Decode(&ev); err != nil {
			break
		}
		if ev.Type != "sweep" || ev.Sweep == nil {
			t.Fatalf("unexpected event %+v", ev)
		}
		if ev.Sweep.Resolved < prevResolved {
			t.Fatalf("resolved count went backwards: %d after %d", ev.Sweep.Resolved, prevResolved)
		}
		prevResolved = ev.Sweep.Resolved
		last = *ev.Sweep
		lines++
	}
	if last.State != SweepDone || lines < 2 {
		t.Fatalf("stream ended after %d lines in state %q", lines, last.State)
	}
}

// TestSweepRecovery: a sweep interrupted by shutdown is re-attached by
// the next process over the same state directory and runs to completion
// — the sweep-level analogue of job recovery.
func TestSweepRecovery(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{StateDir: dir, Workers: 1, DrainTimeout: time.Millisecond})
	spec := smallSweep(23)
	st, resp := submitSweep(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Options{StateDir: dir, Workers: 2})
	sw, ok := s2.Sweep(st.ID)
	if !ok {
		t.Fatal("restarted server does not know the interrupted sweep")
	}
	waitFor(t, "recovered sweep done", func() bool { return s2.SweepStatus(sw).State == SweepDone })
	tableJSON := fetch(t, ts2.URL+"/v1/sweeps/"+st.ID+"/result", http.StatusOK)
	if !bytes.Contains(tableJSON, []byte("mc-study")) {
		t.Error("recovered sweep table lost its title")
	}
}

// TestSweepForkSurvivesRestart: fork checkpoints live in the store, so
// a sweep shut down mid-fan-out continues every point from a checkpoint
// after a restart — the running point from its drain checkpoint, the
// queued ones from their forks — without re-running the shared warmup,
// and every result still byte-matches a cold run.
func TestSweepForkSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{StateDir: dir, Workers: 1, DrainTimeout: time.Millisecond})
	spec := smallSweep(31)
	spec.Axes.MeasureCycles = []uint64{800_000, 850_000, 900_000}
	st, resp := submitSweep(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	waitFor(t, "first fork running", func() bool {
		if counter(s, "serve.sweep_warmups_run") != 1 {
			return false
		}
		for _, ps := range getSweep(t, ts, st.ID).PointJobs {
			if ps.State == StateRunning {
				return true
			}
		}
		return false
	})
	ts.Close()
	shutdown(t, s)

	s2, ts2 := newTestServer(t, Options{StateDir: dir, Workers: 1})
	waitFor(t, "recovered sweep done", func() bool { return getSweep(t, ts2, st.ID).State == SweepDone })
	if got := counter(s2, "serve.jobs_resumed"); got != 3 {
		t.Errorf("serve.jobs_resumed = %d after restart, want 3 (every point continues from a checkpoint)", got)
	}
	if got := counter(s2, "serve.sweep_warmups_run"); got != 0 {
		t.Errorf("serve.sweep_warmups_run = %d after restart, want 0", got)
	}
	requirePointsMatchCold(t, s2, spec)
}

// requirePointsMatchCold requires every point's committed result.json
// to be byte-identical to a cold sim.Run encoding of the same spec.
func requirePointsMatchCold(t *testing.T, s *Server, spec sweep.Spec) {
	t.Helper()
	points, err := sweep.Expand(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		got, err := s.Store().ReadResult(p.SpecHash)
		if err != nil {
			t.Fatalf("point %q: %v", p.Label, err)
		}
		cfg := p.Cfg
		cfg.Telemetry = &telemetry.Config{Run: p.SpecHash}
		want, err := EncodeResult(sim.Run(cfg, p.Mix))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("point %q: result.json differs from a cold sim.Run encoding", p.Label)
		}
	}
}

// TestCorruptReadAnswers410: artifacts that rot while the server runs
// are caught at read time for jobs and sweeps alike — 410, the done
// record downgraded to failed — and a resubmission reruns the sweep to
// the original bytes.
func TestCorruptReadAnswers410(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	spec := smallSweep(37)
	spec.Axes.MeasureCycles = []uint64{30_000, 60_000}
	st, _ := submitSweep(t, ts, spec)
	waitFor(t, "sweep done", func() bool { return getSweep(t, ts, st.ID).State == SweepDone })
	csvURL := ts.URL + "/v1/sweeps/" + st.ID + "/result?artifact=csv"
	wantCSV := fetch(t, csvURL, http.StatusOK)
	point := st.PointJobs[0].JobID

	corruptFile(t, s.Store().path(jobKind, point, "result.json"), flipBit)
	fetch(t, ts.URL+"/v1/jobs/"+point+"/result", http.StatusGone)
	corruptFile(t, s.Store().path(sweepKind, st.ID, "table.csv"), flipBit)
	fetch(t, csvURL, http.StatusGone)
	if js, ss := getStatus(t, ts, point).State, getSweep(t, ts, st.ID).State; js != StateFailed || ss != SweepFailed {
		t.Errorf("after corrupt reads the job is %q and the sweep %q, want both failed", js, ss)
	}

	if _, resp := submitSweep(t, ts, spec); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit after corruption: HTTP %d, want 202", resp.StatusCode)
	}
	waitFor(t, "rerun sweep done", func() bool { return getSweep(t, ts, st.ID).State == SweepDone })
	if got := fetch(t, csvURL, http.StatusOK); !bytes.Equal(got, wantCSV) {
		t.Error("rerun table.csv differs from the pre-corruption bytes")
	}
}

// TestSweepCorruptTableRecovers: a committed sweep whose table.csv rots
// on disk is quarantined by the next process's recovery scan, which
// re-persists its spec so the sweep reruns — its points are cache hits,
// so only the aggregate is recomputed — and ends done with the original
// bytes.
func TestSweepCorruptTableRecovers(t *testing.T) {
	recoverCorruptSweep(t, smallSweep(29), flipBit)
}

// recoverCorruptSweep finishes spec's sweep, shuts the server down,
// damages the committed table.csv, restarts over the same state
// directory, and requires one quarantine and a rerun to done whose
// served artifacts are byte-identical to the pre-corruption ones.
func recoverCorruptSweep(t *testing.T, spec sweep.Spec, damage func([]byte) []byte) {
	t.Helper()
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{StateDir: dir, Workers: 2})
	st, resp := submitSweep(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	waitFor(t, "sweep done", func() bool { return getSweep(t, ts, st.ID).State == SweepDone })
	wantTable := fetch(t, ts.URL+"/v1/sweeps/"+st.ID+"/result", http.StatusOK)
	wantCSV := fetch(t, ts.URL+"/v1/sweeps/"+st.ID+"/result?artifact=csv", http.StatusOK)
	ts.Close()
	shutdown(t, s)
	corruptFile(t, s.Store().path(sweepKind, st.ID, "table.csv"), damage)

	s2, ts2 := newTestServer(t, Options{StateDir: dir, Workers: 2})
	sw, ok := s2.Sweep(st.ID)
	if !ok {
		t.Fatal("restarted server does not know the corrupted sweep")
	}
	waitFor(t, "recovered sweep settled", func() bool { return s2.SweepStatus(sw).State != SweepPending })
	if got := s2.SweepStatus(sw); got.State != SweepDone {
		t.Fatalf("recovered sweep ended %q (%s), want done", got.State, got.Error)
	}
	if got := counter(s2, "serve.cache_quarantined"); got != 1 {
		t.Errorf("serve.cache_quarantined = %d, want 1", got)
	}
	if got := fetch(t, ts2.URL+"/v1/sweeps/"+st.ID+"/result?artifact=csv", http.StatusOK); !bytes.Equal(got, wantCSV) {
		t.Error("recovered table.csv differs from the pre-corruption bytes")
	}
	if got := fetch(t, ts2.URL+"/v1/sweeps/"+st.ID+"/result", http.StatusOK); !bytes.Equal(got, wantTable) {
		t.Error("recovered table.json differs from the pre-corruption bytes")
	}
}
