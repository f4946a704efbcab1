package serve

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"nucasim/internal/atomicio"
	"nucasim/internal/faultinject"
	"nucasim/internal/sim"
	"nucasim/internal/telemetry"
)

// errSimulatedCrash stands in for the process dying between two commit
// steps: the commit hook returns it, PutResult abandons every later
// step, and — exactly like a real crash — nothing transitions any
// in-memory state. The test then boots a fresh Server over the state
// directory and requires full recovery.
var errSimulatedCrash = errors.New("simulated crash")

// crashAfter builds a commit hook that "kills the process" right after
// the named commit step.
func crashAfter(step string) func(string) error {
	return func(s string) error {
		if s == step {
			return errSimulatedCrash
		}
		return nil
	}
}

// matrixEnv is the per-fault scratch state: a state directory, the
// job's identity, and the reference artifacts an uninterrupted direct
// run of the same spec produces.
type matrixEnv struct {
	dir        string
	req        JobRequest
	hash       string
	spec       []byte
	wantResult []byte
	wantCSV    []byte
}

func newMatrixEnv(t *testing.T, seed uint64) *matrixEnv {
	t.Helper()
	req := smallJob(seed)
	cfg, mix, err := req.Build()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := sim.SpecHash(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sim.CanonicalSpec(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Telemetry = &telemetry.Config{Run: hash}
	direct := sim.Run(cfg, mix)
	wantResult, err := EncodeResult(direct)
	if err != nil {
		t.Fatal(err)
	}
	return &matrixEnv{
		dir:        t.TempDir(),
		req:        req,
		hash:       hash,
		spec:       spec,
		wantResult: wantResult,
		wantCSV:    encodeEpochCSV(direct),
	}
}

// store opens the state directory the way a pre-crash process would
// have, optionally with a crash-at-point hook armed.
func (e *matrixEnv) store(t *testing.T, hook func(string) error) *Store {
	t.Helper()
	st, err := NewStore(e.dir)
	if err != nil {
		t.Fatal(err)
	}
	st.commitHook = hook
	if err := st.PutSpec(e.hash, e.spec); err != nil {
		t.Fatal(err)
	}
	return st
}

// commitCrashing runs PutResult with the given crash point and requires
// the simulated crash to fire.
func (e *matrixEnv) commitCrashing(t *testing.T, st *Store, step string) {
	t.Helper()
	st.commitHook = crashAfter(step)
	if err := st.PutResult(e.hash, e.wantResult, e.wantCSV); !errors.Is(err, errSimulatedCrash) {
		t.Fatalf("PutResult with crash at %q returned %v, want simulated crash", step, err)
	}
	st.commitHook = nil
}

// commitClean publishes the reference artifacts as a healthy process
// would have, so corruption faults have a committed entry to damage.
func (e *matrixEnv) commitClean(t *testing.T, st *Store) {
	t.Helper()
	if err := st.PutResult(e.hash, e.wantResult, e.wantCSV); err != nil {
		t.Fatal(err)
	}
}

// recoverAndVerify boots a fresh Server over the (possibly damaged)
// state directory, submits the spec, and requires the served artifacts
// to be byte-identical to the uninterrupted direct run — the
// stale-never-wrong guarantee, regardless of what the fault did.
func (e *matrixEnv) recoverAndVerify(t *testing.T, opts Options) *Server {
	t.Helper()
	opts.StateDir = e.dir
	if opts.Workers == 0 {
		opts.Workers = 1
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdown(t, s) })

	j, _, err := s.Submit(e.req)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, j)
	if got := s.Status(j); got.State != StateDone {
		t.Fatalf("recovered job ended %q (error %q), want done", got.State, got.Error)
	}
	gotResult, err := s.Store().ReadResult(e.hash)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotResult, e.wantResult) {
		t.Errorf("recovered result.json differs from uninterrupted run (%d vs %d bytes)", len(gotResult), len(e.wantResult))
	}
	gotCSV, err := s.Store().readVerified(jobKind, e.hash, "epoch.csv")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCSV, e.wantCSV) {
		t.Errorf("recovered epoch.csv differs from uninterrupted run")
	}
	return s
}

func shutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.Shutdown(ctx)
}

func waitTerminal(t *testing.T, s *Server, j *Job) {
	t.Helper()
	waitFor(t, "job terminal", func() bool { return s.Status(j).State.terminal() })
}

func counter(s *Server, name string) uint64 { return s.metrics.snapshot().Counters[name] }

func quarantineEntries(t *testing.T, s *Server) int {
	t.Helper()
	entries, err := os.ReadDir(s.Store().QuarantineDir())
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	return len(entries)
}

// corruptFile applies damage to a committed artifact in place,
// bypassing atomicio — modeling bit rot, torn writes and partial
// restores, not a buggy writer.
func corruptFile(t *testing.T, path string, damage func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, damage(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func flipBit(data []byte) []byte {
	out := append([]byte(nil), data...)
	out[len(out)/2] ^= 0x40
	return out
}

// TestServeFaultMatrix drives every entry of the serve-layer fault
// catalog (internal/faultinject.ServeMatrix) and proves its claimed
// outcome: recovery, quarantine, or explicit failure — with recovered
// results byte-identical to an uninterrupted run and zero paths that
// serve corrupted bytes. The catalog and the injectors here must match
// one-to-one, so a fault added to either side without the other is a
// test failure, not silent drift.
func TestServeFaultMatrix(t *testing.T) {
	injectors := map[string]func(t *testing.T){
		"crash-before-commit": func(t *testing.T) {
			env := newMatrixEnv(t, 101)
			env.store(t, nil) // spec persisted, nothing else
			env.recoverAndVerify(t, Options{})
		},
		"crash-after-epoch-csv": func(t *testing.T) {
			env := newMatrixEnv(t, 102)
			st := env.store(t, nil)
			env.commitCrashing(t, st, "epoch.csv")
			if _, err := os.Stat(st.path(jobKind, env.hash, "result.json")); !os.IsNotExist(err) {
				t.Fatal("crash point leaked a result.json commit marker")
			}
			env.recoverAndVerify(t, Options{})
		},
		"crash-after-manifest": func(t *testing.T) {
			env := newMatrixEnv(t, 103)
			st := env.store(t, nil)
			env.commitCrashing(t, st, "manifest.json")
			if _, err := os.Stat(st.path(jobKind, env.hash, "result.json")); !os.IsNotExist(err) {
				t.Fatal("crash point leaked a result.json commit marker")
			}
			env.recoverAndVerify(t, Options{})
		},
		"crash-before-checkpoint-gc": func(t *testing.T) {
			env := newMatrixEnv(t, 104)
			st := env.store(t, nil)
			// The job had checkpointed mid-run, then committed fully, then
			// the process died before deleting the obsolete checkpoint.
			if err := os.WriteFile(st.CheckpointPath(env.hash), []byte("obsolete checkpoint"), 0o644); err != nil {
				t.Fatal(err)
			}
			env.commitCrashing(t, st, "result.json")
			s := env.recoverAndVerify(t, Options{})
			// The entry must have been served from cache (committed work is
			// never redone) and the stale checkpoint garbage-collected.
			j, _ := s.Job(env.hash)
			if got := s.Status(j); !got.Cached {
				t.Errorf("committed entry was not served from cache: %+v", got)
			}
			if s.Store().HasCheckpoint(env.hash) {
				t.Error("stale checkpoint survived recovery")
			}
		},
		"bitflip-result": func(t *testing.T) {
			env := newMatrixEnv(t, 105)
			st := env.store(t, nil)
			env.commitClean(t, st)
			corruptFile(t, st.path(jobKind, env.hash, "result.json"), flipBit)
			s := env.recoverAndVerify(t, Options{})
			if got := counter(s, "serve.cache_quarantined"); got != 1 {
				t.Errorf("serve.cache_quarantined = %d, want 1", got)
			}
			if got := quarantineEntries(t, s); got != 1 {
				t.Errorf("quarantine holds %d entries, want 1", got)
			}
		},
		"bitflip-epoch-csv": func(t *testing.T) {
			env := newMatrixEnv(t, 106)
			st := env.store(t, nil)
			env.commitClean(t, st)
			corruptFile(t, st.path(jobKind, env.hash, "epoch.csv"), flipBit)
			s := env.recoverAndVerify(t, Options{})
			if got := counter(s, "serve.cache_quarantined"); got != 1 {
				t.Errorf("serve.cache_quarantined = %d, want 1", got)
			}
		},
		"truncate-result": func(t *testing.T) {
			env := newMatrixEnv(t, 107)
			st := env.store(t, nil)
			env.commitClean(t, st)
			corruptFile(t, st.path(jobKind, env.hash, "result.json"), func(b []byte) []byte { return b[:len(b)/2] })
			// The torn artifact must be unreadable through the verified
			// path — the reader gets a CorruptError, never the short bytes.
			var corrupt *CorruptError
			if _, err := st.ReadResult(env.hash); !errors.As(err, &corrupt) {
				t.Fatalf("ReadResult on torn artifact returned %v, want CorruptError", err)
			}
			env.recoverAndVerify(t, Options{})
		},
		"missing-manifest": func(t *testing.T) {
			env := newMatrixEnv(t, 108)
			st := env.store(t, nil)
			env.commitClean(t, st)
			if err := os.Remove(st.path(jobKind, env.hash, manifestFile)); err != nil {
				t.Fatal(err)
			}
			s := env.recoverAndVerify(t, Options{})
			if got := counter(s, "serve.cache_quarantined"); got != 1 {
				t.Errorf("serve.cache_quarantined = %d, want 1", got)
			}
		},
		"bitflip-sweep-csv": func(t *testing.T) {
			spec := smallSweep(113)
			spec.Axes.MeasureCycles = []uint64{30_000, 60_000}
			recoverCorruptSweep(t, spec, flipBit)
		},
		"corrupt-checkpoint": func(t *testing.T) {
			env := newMatrixEnv(t, 109)
			st := env.store(t, nil)
			if err := os.WriteFile(st.CheckpointPath(env.hash), []byte("not a gob checkpoint"), 0o644); err != nil {
				t.Fatal(err)
			}
			s := env.recoverAndVerify(t, Options{})
			j, _ := s.Job(env.hash)
			if got := s.Status(j); got.Resumed {
				t.Errorf("job claims to have resumed from a corrupt checkpoint: %+v", got)
			}
			if got := counter(s, "serve.checkpoints_discarded"); got != 1 {
				t.Errorf("serve.checkpoints_discarded = %d, want 1", got)
			}
		},
		"corrupt-fork-checkpoint": func(t *testing.T) {
			spec := smallSweep(114)
			spec.Axes.MeasureCycles = []uint64{30_000, 60_000}
			s, _ := newTestServer(t, Options{Workers: 1})
			// Rot the first point's fork checkpoint after the warmup task
			// wrote it, just before the worker reads it (a failed write
			// shows up as a missing fallback below).
			var rotted string
			s.testHookRun = func(j *Job) {
				if rotted == "" && s.Store().HasCheckpoint(j.ID) {
					rotted = j.ID
					os.WriteFile(s.Store().CheckpointPath(j.ID), []byte("not a gob checkpoint"), 0o644)
				}
			}
			sw, _, err := s.SubmitSweep(spec)
			if err != nil {
				t.Fatal(err)
			}
			waitFor(t, "sweep settled", func() bool { return s.SweepStatus(sw).State != SweepPending })
			if got := s.SweepStatus(sw); got.State != SweepDone {
				t.Fatalf("sweep ended %q (%s), want done", got.State, got.Error)
			}
			j, _ := s.Job(rotted)
			if got := s.Status(j); got.Retries != 1 || got.Forked || got.Resumed {
				t.Errorf("rotted point: %+v, want one cold retry", got)
			}
			if got := counter(s, "serve.sweep_fork_fallbacks"); got != 1 {
				t.Errorf("serve.sweep_fork_fallbacks = %d, want 1", got)
			}
			if got := counter(s, "serve.checkpoints_discarded"); got != 1 {
				t.Errorf("serve.checkpoints_discarded = %d, want 1", got)
			}
			if got := counter(s, "serve.sweep_points_forked"); got != 1 {
				t.Errorf("serve.sweep_points_forked = %d, want 1 (the healthy point)", got)
			}
			requirePointsMatchCold(t, s, spec)
		},
		"enospc-result-commit": func(t *testing.T) {
			env := newMatrixEnv(t, 110)
			atomicio.SetFailpoint(func(op atomicio.Op, path string) error {
				if op == atomicio.OpSync && strings.HasSuffix(path, "result.json") {
					return syscall.ENOSPC
				}
				return nil
			})
			defer atomicio.SetFailpoint(nil)

			s, err := New(Options{StateDir: env.dir, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { shutdown(t, s) })
			j, _, err := s.Submit(env.req)
			if err != nil {
				t.Fatal(err)
			}
			waitTerminal(t, s, j)
			got := s.Status(j)
			if got.State != StateFailed || !strings.Contains(got.Error, "no space") {
				t.Fatalf("ENOSPC job ended %q (error %q), want explicit failure", got.State, got.Error)
			}
			if _, err := os.Stat(s.Store().path(jobKind, env.hash, "result.json")); !os.IsNotExist(err) {
				t.Fatal("a result.json is visible despite the failed commit")
			}
			// Disk "frees up": the same submission must now succeed with
			// the correct bytes (Submit re-runs failed jobs).
			atomicio.SetFailpoint(nil)
			j2, created, err := s.Submit(env.req)
			if err != nil || !created {
				t.Fatalf("resubmit after failure: created=%v err=%v", created, err)
			}
			waitTerminal(t, s, j2)
			if got := s.Status(j2); got.State != StateDone {
				t.Fatalf("resubmitted job ended %q (error %q)", got.State, got.Error)
			}
			data, err := s.Store().ReadResult(env.hash)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, env.wantResult) {
				t.Error("result after ENOSPC retry differs from uninterrupted run")
			}
		},
		"worker-panic": func(t *testing.T) {
			env := newMatrixEnv(t, 111)
			s, err := New(Options{StateDir: env.dir, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { shutdown(t, s) })
			armed := true
			s.testHookRun = func(j *Job) {
				if armed {
					armed = false
					panic("injected simulator fault")
				}
			}
			j, _, err := s.Submit(env.req)
			if err != nil {
				t.Fatal(err)
			}
			waitTerminal(t, s, j)
			got := s.Status(j)
			if got.State != StateFailed || !strings.Contains(got.Error, "injected simulator fault") {
				t.Fatalf("panicked job ended %q (error %q), want failed with panic message", got.State, got.Error)
			}
			if !strings.Contains(got.Stack, "runIsolated") && !strings.Contains(got.Stack, "goroutine") {
				t.Errorf("panic stack not captured in job record: %q", got.Stack)
			}
			if got := counter(s, "serve.panics_recovered"); got != 1 {
				t.Errorf("serve.panics_recovered = %d, want 1", got)
			}
			// The worker pool survived: the same spec reruns to completion
			// in this same process, byte-identical.
			j2, created, err := s.Submit(env.req)
			if err != nil || !created {
				t.Fatalf("resubmit after panic: created=%v err=%v", created, err)
			}
			waitTerminal(t, s, j2)
			if got := s.Status(j2); got.State != StateDone {
				t.Fatalf("job after panic ended %q (error %q)", got.State, got.Error)
			}
			data, err := s.Store().ReadResult(env.hash)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, env.wantResult) {
				t.Error("result after recovered panic differs from uninterrupted run")
			}
		},
	}

	catalog := faultinject.ServeMatrix()
	if len(catalog) < 8 {
		t.Fatalf("serve fault catalog has %d entries, the matrix requires >= 8", len(catalog))
	}
	seen := make(map[string]bool)
	for _, f := range catalog {
		inject, ok := injectors[f.Name]
		if !ok {
			t.Errorf("catalog entry %q has no injector in this test", f.Name)
			continue
		}
		seen[f.Name] = true
		t.Run(f.Name, inject)
	}
	for name := range injectors {
		if !seen[name] {
			t.Errorf("injector %q has no catalog entry in faultinject.ServeMatrix", name)
		}
	}
}

// TestJobDeadline: a job that outlives -job-timeout fails explicitly
// with a deadline diagnostic instead of occupying its worker forever,
// and leaves no resumable state behind.
func TestJobDeadline(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, JobTimeout: 250 * time.Millisecond})
	st, resp := submit(t, ts, longJob(112))
	if resp.StatusCode != 202 {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	waitFor(t, "deadline failure", func() bool { return getStatus(t, ts, st.ID).State == StateFailed })
	got := getStatus(t, ts, st.ID)
	if !strings.Contains(got.Error, "deadline") {
		t.Errorf("failure reason %q does not mention the deadline", got.Error)
	}
	if got := counter(s, "serve.jobs_deadline_exceeded"); got != 1 {
		t.Errorf("serve.jobs_deadline_exceeded = %d, want 1", got)
	}
	if s.Store().HasCheckpoint(st.ID) {
		t.Error("deadline-failed job left a checkpoint behind")
	}
	if _, err := os.Stat(s.Store().path(jobKind, st.ID, specFile)); !os.IsNotExist(err) {
		t.Error("deadline-failed job left its spec behind (would rerun forever on restart)")
	}
}

// TestRetryAfterJitter: the 429 backoff hint is jittered — repeated
// draws under identical queue pressure spread out instead of telling
// every rejected client the same second.
func TestRetryAfterJitter(t *testing.T) {
	s := &Server{opts: Options{Workers: 2}.withDefaults()}
	s.queue = make([]workItem, 10)
	distinct := make(map[int]bool)
	for i := 0; i < 200; i++ {
		ra := s.retryAfterLocked()
		// Base estimate is (10+2)/2 = 6s; ±25% keeps it within [4, 8].
		if ra < 4 || ra > 8 {
			t.Fatalf("Retry-After %d outside jitter envelope [4, 8]", ra)
		}
		distinct[ra] = true
	}
	if len(distinct) < 2 {
		t.Errorf("200 draws produced %d distinct Retry-After values; jitter is not jittering", len(distinct))
	}
}
