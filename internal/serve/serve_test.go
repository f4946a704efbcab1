package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nucasim/internal/sim"
	"nucasim/internal/telemetry"
)

// smallJob is quick enough to finish in well under a second even with
// the race detector on, yet long enough to record several epochs.
func smallJob(seed uint64) JobRequest {
	return JobRequest{
		Scheme:             "adaptive",
		Apps:               []string{"ammp", "swim"},
		Seed:               seed,
		WarmupInstructions: 200_000,
		WarmupCycles:       20_000,
		MeasureCycles:      150_000,
	}
}

// longJob takes long enough that the test can reliably observe it
// mid-run before deciding its fate (cancel, drain, queue behind it).
func longJob(seed uint64) JobRequest {
	r := smallJob(seed)
	r.MeasureCycles = 30_000_000
	return r
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.StateDir == "" {
		opts.StateDir = t.TempDir()
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, req JobRequest) (Status, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	}
	return st, resp
}

func getStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status: HTTP %d", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func fetch(t *testing.T, url string, wantCode int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: HTTP %d, want %d", url, resp.StatusCode, wantCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLifecycleAndCacheIdentity is the tentpole's core guarantee: a job
// run through the service produces artifacts byte-for-byte identical to
// a direct sim.Run of the same spec, the NDJSON stream carries live
// epoch samples, and a fresh server over the same state directory
// serves the result from cache without simulating anything.
func TestLifecycleAndCacheIdentity(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{StateDir: dir, Workers: 1})
	release := gateRuns(t, s)
	// Hold the only worker on another job, so this one is still queued
	// when its submission answers and when its event stream attaches.
	blocker, _ := submit(t, ts, smallJob(2))
	waitFor(t, "worker held", func() bool { return getStatus(t, ts, blocker.ID).State == StateRunning })

	req := smallJob(1)
	st, resp := submit(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, want 202", resp.StatusCode)
	}
	if st.ID == "" || st.State != StateQueued {
		t.Fatalf("submit status = %+v", st)
	}

	// Attach to the event stream before the job runs, then follow it to
	// completion, counting what it carries.
	events, _ := openEvents(t, ts, st.ID)
	release()
	statuses, epochs := readEvents(t, events, 0)
	statusEvents := 1 + len(statuses)
	var final Status
	if len(statuses) > 0 {
		final = statuses[len(statuses)-1]
	}
	for _, e := range epochs {
		if e.Eval == 0 {
			t.Fatal("epoch event with zero Eval")
		}
	}
	if final.State != StateDone {
		t.Fatalf("stream ended in state %q (error %q)", final.State, final.Error)
	}
	if statusEvents < 2 || len(epochs) < 1 {
		t.Fatalf("stream carried %d status and %d epoch events; want ≥2 and ≥1", statusEvents, len(epochs))
	}

	gotResult := fetch(t, ts.URL+"/v1/jobs/"+st.ID+"/result", http.StatusOK)
	gotCSV := fetch(t, ts.URL+"/v1/jobs/"+st.ID+"/result?artifact=epochs", http.StatusOK)

	// The reference: a direct in-process run of the identical spec with
	// plain telemetry (no hooks, no checkpointing).
	cfg, mix, err := req.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Telemetry = &telemetry.Config{Run: st.ID}
	direct := sim.Run(cfg, mix)
	wantResult, err := EncodeResult(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotResult, wantResult) {
		t.Errorf("cached result.json differs from direct sim.Run encoding:\nserved %d bytes, direct %d bytes", len(gotResult), len(wantResult))
	}
	if want := encodeEpochCSV(direct); !bytes.Equal(gotCSV, want) {
		t.Errorf("cached epoch.csv differs from direct run's epoch series")
	}

	// Same-process resubmission dedups onto the finished job.
	st2, resp2 := submit(t, ts, req)
	if resp2.StatusCode != http.StatusOK || st2.ID != st.ID || st2.State != StateDone {
		t.Fatalf("resubmit: HTTP %d, status %+v", resp2.StatusCode, st2)
	}

	// A brand-new server over the same state directory serves the cached
	// result without running anything.
	cyclesBefore := sim.CyclesSimulated()
	_, ts2 := newTestServer(t, Options{StateDir: dir})
	st3, resp3 := submit(t, ts2, req)
	if resp3.StatusCode != http.StatusOK || !st3.Cached || st3.State != StateDone {
		t.Fatalf("cross-process resubmit: HTTP %d, status %+v", resp3.StatusCode, st3)
	}
	if got := fetch(t, ts2.URL+"/v1/jobs/"+st3.ID+"/result", http.StatusOK); !bytes.Equal(got, wantResult) {
		t.Error("cache-hit result differs from direct run encoding")
	}
	if d := sim.CyclesSimulated() - cyclesBefore; d != 0 {
		t.Errorf("cache hit simulated %d cycles; want 0", d)
	}
}

// TestCancelMidRun: DELETE on a running job interrupts it promptly and
// removes its on-disk state so a restart cannot resurrect it.
func TestCancelMidRun(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})

	st, resp := submit(t, ts, longJob(7))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	waitFor(t, "job running", func() bool { return getStatus(t, ts, st.ID).State == StateRunning })

	dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: HTTP %d", dresp.StatusCode)
	}
	waitFor(t, "job canceled", func() bool { return getStatus(t, ts, st.ID).State == StateCanceled })

	if _, err := os.Stat(s.Store().path(jobKind, st.ID, specFile)); !os.IsNotExist(err) {
		t.Errorf("canceled job's spec still on disk (err=%v)", err)
	}
	// The result endpoint now reports the state, not artifacts.
	if body := fetch(t, ts.URL+"/v1/jobs/"+st.ID+"/result", http.StatusConflict); !strings.Contains(string(body), "canceled") {
		t.Errorf("result of canceled job: %s", body)
	}
}

// TestQueueFullBackpressure: with one worker and a one-deep queue, a
// third distinct job is rejected with 429 and a Retry-After hint.
func TestQueueFullBackpressure(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})

	stA, respA := submit(t, ts, longJob(11))
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("job A: HTTP %d", respA.StatusCode)
	}
	waitFor(t, "job A running", func() bool { return getStatus(t, ts, stA.ID).State == StateRunning })

	stB, respB := submit(t, ts, longJob(12))
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("job B: HTTP %d", respB.StatusCode)
	}
	if got := getStatus(t, ts, stB.ID); got.State != StateQueued {
		t.Fatalf("job B state = %q, want queued", got.State)
	}

	_, respC := submit(t, ts, longJob(13))
	if respC.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job C: HTTP %d, want 429", respC.StatusCode)
	}
	if ra := respC.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("429 carried Retry-After %q", ra)
	}

	// Resubmitting an already-known spec is a dedup, never a rejection,
	// even with the queue full.
	stB2, respB2 := submit(t, ts, longJob(12))
	if respB2.StatusCode != http.StatusOK || stB2.ID != stB.ID {
		t.Fatalf("duplicate of queued job: HTTP %d %+v", respB2.StatusCode, stB2)
	}
}

// TestBadRequests: validation failures surface as 400s.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for name, body := range map[string]string{
		"empty":           `{}`,
		"one app":         `{"apps":["gzip"]}`,
		"unknown app":     `{"apps":["gzip","no-such-app"]}`,
		"unknown key":     `{"apps":["ammp","swim"],"frobnicate":1}`,
		"bad scheme":      `{"scheme":"psychic","apps":["ammp","swim"]}`,
		"negative period": `{"scheme":"private","apps":["ammp","swim","lucas","gzip"],"repartition_period":-3}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/definitely-not-a-hash")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestDrainCheckpointResume is the restart guarantee, for an adaptive
// and a private job: SIGTERM-style shutdown mid-measurement checkpoints
// the running job, and a new server over the same state directory
// resumes it — simulating only the cycles the first process had not
// finished, then producing artifacts byte-identical to an uninterrupted
// direct run.
func TestDrainCheckpointResume(t *testing.T) {
	for _, scheme := range []string{"adaptive", "private"} {
		t.Run(scheme, func(t *testing.T) {
			req := smallJob(21)
			req.Scheme = scheme
			req.MeasureCycles = 800_000
			testDrainCheckpointResume(t, req)
		})
	}
}

func testDrainCheckpointResume(t *testing.T, req JobRequest) {
	dir := t.TempDir()

	s1, err := New(Options{
		StateDir:        dir,
		Workers:         1,
		DrainTimeout:    time.Millisecond, // force the interrupt path
		CheckpointEvery: 50_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()

	st, resp := submit(t, ts1, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	// Let it get firmly into the measurement window so the interrupt
	// checkpoint has real progress behind it.
	waitFor(t, "measurement underway", func() bool {
		got := getStatus(t, ts1, st.ID)
		return got.State == StateRunning && got.Progress.Phase == "measure" && got.Progress.Done > 0
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if got := s1.Status(mustJob(t, s1, st.ID)); got.State != StateCheckpointed {
		t.Fatalf("after drain: state %q, want checkpointed", got.State)
	}
	ck, err := sim.ReadCheckpoint(s1.Store().CheckpointPath(st.ID))
	if err != nil {
		t.Fatal(err)
	}
	if ck.Measured == 0 || ck.Measured >= req.MeasureCycles {
		t.Fatalf("checkpoint Measured = %d, want mid-window (0, %d)", ck.Measured, req.MeasureCycles)
	}

	// Restart: the new server finds the unfinished job, resumes it from
	// the checkpoint, and finishes without redoing completed work.
	cyclesBefore := sim.CyclesSimulated()
	s2, ts2 := newTestServer(t, Options{StateDir: dir, Workers: 1})
	j2, ok := s2.Job(st.ID)
	if !ok {
		t.Fatal("restarted server does not know the checkpointed job")
	}
	waitFor(t, "resumed job done", func() bool { return s2.Status(j2).State == StateDone })
	if got := s2.Status(j2); !got.Resumed {
		t.Errorf("finished job not marked resumed: %+v", got)
	}
	if got := counter(s2, "serve.jobs_resumed"); got != 1 {
		t.Errorf("serve.jobs_resumed = %d, want 1", got)
	}
	resumeDelta := sim.CyclesSimulated() - cyclesBefore
	if want := req.MeasureCycles - ck.Measured; resumeDelta != want {
		t.Errorf("resume simulated %d cycles, want exactly the unfinished %d", resumeDelta, want)
	}
	if s2.Store().HasCheckpoint(st.ID) {
		t.Error("checkpoint not cleaned up after successful completion")
	}

	// The stitched-together run must be indistinguishable from one that
	// was never interrupted.
	served := fetch(t, ts2.URL+"/v1/jobs/"+st.ID+"/result", http.StatusOK)
	cfg, mix, err := req.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Telemetry = &telemetry.Config{Run: st.ID}
	want, err := EncodeResult(sim.Run(cfg, mix))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want) {
		t.Error("resumed result differs from uninterrupted direct run")
	}
}

// TestDrainInterruptsWarmup: a drain that interrupts a job in warmup
// leaves no checkpoint, so the job lands in StateInterrupted, and a
// new server over the same state directory reruns it from scratch to
// the result of an uninterrupted direct run.
func TestDrainInterruptsWarmup(t *testing.T) {
	dir := t.TempDir()
	req := smallJob(31)
	req.WarmupInstructions = 4_000_000
	req.MeasureCycles = 20_000

	s1, err := New(Options{StateDir: dir, Workers: 1, DrainTimeout: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()
	st, resp := submit(t, ts1, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	waitFor(t, "functional warmup underway", func() bool {
		got := getStatus(t, ts1, st.ID)
		return got.State == StateRunning && got.Progress.Phase == "warmup-functional" && got.Progress.Done > 0
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if got := s1.Status(mustJob(t, s1, st.ID)); got.State != StateInterrupted {
		t.Fatalf("after drain: state %q, want interrupted", got.State)
	}
	if got := counter(s1, "serve.jobs_interrupted"); got != 1 {
		t.Errorf("serve.jobs_interrupted = %d, want 1", got)
	}
	if _, err := os.Stat(s1.Store().CheckpointPath(st.ID)); !os.IsNotExist(err) {
		t.Errorf("interrupted warmup left a checkpoint.bin (stat: %v)", err)
	}

	s2, ts2 := newTestServer(t, Options{StateDir: dir, Workers: 1})
	j2 := mustJob(t, s2, st.ID)
	waitFor(t, "rerun job done", func() bool { return s2.Status(j2).State == StateDone })
	if got := s2.Status(j2); got.Resumed {
		t.Errorf("rerun job marked resumed: %+v", got)
	}
	served := fetch(t, ts2.URL+"/v1/jobs/"+st.ID+"/result", http.StatusOK)
	cfg, mix, err := req.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Telemetry = &telemetry.Config{Run: st.ID}
	want, err := EncodeResult(sim.Run(cfg, mix))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want) {
		t.Error("rerun result differs from an uninterrupted direct run")
	}
}

// writeJobCheckpoint stores, as job hash's checkpoint.bin in st, the
// run of req interrupted measured cycles into its window by a process
// that checkpointed to path every `every` cycles.
func writeJobCheckpoint(t *testing.T, st *Store, hash string, req JobRequest, measured uint64, path string, every uint64) {
	t.Helper()
	cfg, mix, err := req.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Telemetry = &telemetry.Config{Run: hash}
	ctx := context.Background()
	m, err := sim.NewWarmedMachine(ctx, cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.MeasureWindows(ctx, []uint64{measured}); err != nil {
		t.Fatal(err)
	}
	ck, err := m.Capture()
	if err != nil {
		t.Fatal(err)
	}
	ck.Cfg.MeasureCycles = req.MeasureCycles
	ck.Cfg.CheckpointPath, ck.Cfg.CheckpointEvery = path, every
	if err := sim.WriteCheckpoint(st.CheckpointPath(hash), ck); err != nil {
		t.Fatal(err)
	}
}

// TestResumeFromMovedStateDir: a checkpoint names the state directory
// of the process that wrote it. A server over a moved state directory
// must resume it all the same, checkpointing into its own store, and
// commit the uninterrupted run's result.
func TestResumeFromMovedStateDir(t *testing.T) {
	env := newMatrixEnv(t, 121)
	st := env.store(t, nil)
	gone := filepath.Join(t.TempDir(), "moved-away", "checkpoint.bin")
	writeJobCheckpoint(t, st, env.hash, env.req, 40_000, gone, 20_000)
	s := env.recoverAndVerify(t, Options{CheckpointEvery: 20_000})
	if got := s.Status(mustJob(t, s, env.hash)); !got.Resumed {
		t.Errorf("job did not resume its checkpoint: %+v", got)
	}
	if got := counter(s, "serve.checkpoints_discarded"); got != 0 {
		t.Errorf("serve.checkpoints_discarded = %d, want 0", got)
	}
}

// TestResumeRefusesOtherSpecsCheckpoint: a checkpoint.bin holding
// another spec's run is refused and the job runs from scratch, so the
// result committed under the job's hash is its own.
func TestResumeRefusesOtherSpecsCheckpoint(t *testing.T) {
	env := newMatrixEnv(t, 122)
	st := env.store(t, nil)
	writeJobCheckpoint(t, st, env.hash, smallJob(123), 40_000, st.CheckpointPath(env.hash), 0)
	s := env.recoverAndVerify(t, Options{})
	if got := counter(s, "serve.checkpoints_discarded"); got != 1 {
		t.Errorf("serve.checkpoints_discarded = %d, want 1", got)
	}
}

func mustJob(t *testing.T, s *Server, id string) *Job {
	t.Helper()
	j, ok := s.Job(id)
	if !ok {
		t.Fatalf("job %s unknown", id)
	}
	return j
}

// TestMetricsEndpoint spot-checks the exposition format and a few
// values that must be present after one completed job.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	st, _ := submit(t, ts, smallJob(31))
	waitFor(t, "job done", func() bool { return getStatus(t, ts, st.ID).State == StateDone })

	body := string(fetch(t, ts.URL+"/metrics", http.StatusOK))
	for _, want := range []string{
		"serve_jobs_submitted 1",
		"serve_jobs_completed 1",
		"serve_jobs_state_done 1",
		"serve_workers 1",
		"sim_cycles_simulated",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
	if !strings.Contains(body, "# TYPE serve_jobs_submitted counter") {
		t.Errorf("/metrics missing TYPE line:\n%s", body)
	}
}

// TestSpecHashStability: the job ID really is content-addressed —
// semantically equal requests collide, different seeds do not.
func TestSpecHashStability(t *testing.T) {
	cfgA, mixA, err := smallJob(1).Build()
	if err != nil {
		t.Fatal(err)
	}
	hashA1, err := sim.SpecHash(cfgA, mixA)
	if err != nil {
		t.Fatal(err)
	}
	hashA2, _ := sim.SpecHash(cfgA, mixA)
	if hashA1 != hashA2 {
		t.Fatalf("hash not deterministic: %s vs %s", hashA1, hashA2)
	}
	// Observability knobs must not perturb the content address.
	cfgObs := cfgA
	cfgObs.Telemetry = &telemetry.Config{Run: "x", FullTrace: true}
	cfgObs.CheckInvariants = true
	if h, _ := sim.SpecHash(cfgObs, mixA); h != hashA1 {
		t.Error("telemetry/invariant settings changed the spec hash")
	}
	cfgB, mixB, _ := smallJob(2).Build()
	if h, _ := sim.SpecHash(cfgB, mixB); h == hashA1 {
		t.Error("different seeds share a spec hash")
	}
	// Round-trip through the persisted form.
	spec, err := sim.CanonicalSpec(cfgA, mixA)
	if err != nil {
		t.Fatal(err)
	}
	cfgR, mixR, err := sim.ParseCanonicalSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if h, _ := sim.SpecHash(cfgR, mixR); h != hashA1 {
		t.Error("ParseCanonicalSpec round-trip changed the hash")
	}
}

// BenchmarkServeSubmit measures the full HTTP submit path on a warmed
// cache: decode, canonicalize, hash, dedup lookup, respond. This is the
// steady-state cost of an idempotent resubmission.
func BenchmarkServeSubmit(b *testing.B) {
	s, err := New(Options{StateDir: b.TempDir(), Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	req := smallJob(1)
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	var st Status
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			b.Fatal(err)
		}
		var cur Status
		json.NewDecoder(r.Body).Decode(&cur)
		r.Body.Close()
		if cur.State == StateDone {
			break
		}
		if cur.State.terminal() {
			b.Fatalf("warmup job ended %q", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("HTTP %d on warmed resubmit", resp.StatusCode)
		}
		resp.Body.Close()
	}
}
