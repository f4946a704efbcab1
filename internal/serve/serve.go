// Package serve is the nucaserve HTTP simulation service: it accepts
// simulation jobs over JSON, runs them on a bounded worker pool with a
// FIFO queue and backpressure, caches every result in a
// content-addressed on-disk store (keyed by the canonical SHA-256 of
// the normalized job spec, so a cache hit returns byte-identical
// artifacts to a direct sim.Run), streams per-job progress as NDJSON
// built on the telemetry epoch ring, and drains gracefully — jobs that
// cannot finish before the drain deadline are checkpointed and resumed
// by the next process instead of recomputed.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"nucasim/internal/sim"
	"nucasim/internal/telemetry"
	"nucasim/internal/workload"
)

// Options configures a Server. The zero value works: GOMAXPROCS
// workers, a 64-deep queue, 30 s drain, 50 k-cycle checkpoint cadence.
type Options struct {
	// StateDir roots the content-addressed result cache and the
	// checkpoints of interrupted jobs. Required.
	StateDir string
	// Workers bounds concurrent simulations (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs waiting to run; a submission past it gets
	// HTTP 429 with Retry-After (default 64).
	QueueDepth int
	// DrainTimeout is how long Shutdown lets running jobs finish before
	// interrupting them into checkpoints (default 30 s).
	DrainTimeout time.Duration
	// CheckpointEvery is the periodic crash-safety cadence, in measured
	// cycles, for running jobs (default sim's 50 000).
	CheckpointEvery uint64
	// JobTimeout bounds one job's wall-clock run time (queue wait
	// excluded). Zero means no deadline. A job that exceeds it fails
	// explicitly (StateFailed, serve.jobs_deadline_exceeded) instead of
	// occupying a worker forever.
	JobTimeout time.Duration
	// MaxSweepPoints caps how many points one POST /v1/sweeps may expand
	// to; larger grids are rejected with 400 before any work is enqueued
	// (default sweep.DefaultMaxPoints). Sweep points bypass QueueDepth —
	// this cap is their admission control.
	MaxSweepPoints int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 30 * time.Second
	}
	return o
}

// Server owns the worker pool, the job table and the result store. All
// fields behind mu are shared between HTTP handler goroutines and the
// workers.
type Server struct {
	opts  Options
	store *Store

	mu        sync.Mutex
	cond      *sync.Cond // queue became non-empty, or stopping
	jobs      map[string]*Job
	sweeps    map[string]*Sweep
	queue     []workItem // FIFO of StateQueued jobs and pending warmup tasks
	queueHigh int        // deepest the FIFO has ever been (high-water mark)
	running   int
	// warmups tracks warmup tasks currently executing on a worker, so
	// the shutdown drain can interrupt them alongside running jobs.
	warmups  map[*warmupTask]struct{}
	draining bool // no new submissions, workers stop dequeuing
	stopping bool // workers exit

	metrics serverMetrics
	started time.Time
	wg      sync.WaitGroup

	// testHookRun, when set, runs on the worker goroutine inside the
	// panic-isolation scope just before the simulation starts — the
	// fault matrix uses it to inject worker panics. Never set in
	// production.
	testHookRun func(j *Job)
}

// New builds a Server, re-queues unfinished work found in the state
// directory (resuming from checkpoints where they exist), and starts
// the worker pool.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if opts.StateDir == "" {
		return nil, errors.New("serve: Options.StateDir is required")
	}
	store, err := NewStore(opts.StateDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:    opts,
		store:   store,
		jobs:    make(map[string]*Job),
		sweeps:  make(map[string]*Sweep),
		warmups: make(map[*warmupTask]struct{}),
		started: time.Now(),
	}
	s.cond = sync.NewCond(&s.mu)
	s.metrics.init()
	store.onQuarantine = func(hash, reason string) {
		s.metrics.inc("serve.cache_quarantined")
		log.Printf("serve: quarantined cache entry %s: %s", hash, reason)
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	if err := s.recoverSweeps(); err != nil {
		return nil, err
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// recover re-queues every job the previous process left unfinished.
// The store's pending scan doubles as its integrity pass: committed
// entries are verified against their manifests, and corrupt ones are
// quarantined and — when their spec survives — rerun from scratch.
// Stale checkpoints next to committed results (a crash after commit,
// before checkpoint removal) are garbage-collected. Checkpoints of
// pending jobs are left for the worker, which continues every job that
// has one (and falls back to a from-scratch rerun if it no longer
// reads back). Recovery may exceed QueueDepth — the backlog is real
// work already accepted, not new load.
func (s *Server) recover() error {
	pending, err := s.store.pending(jobKind)
	if err != nil {
		return err
	}
	hashes, err := s.store.list(jobKind)
	if err != nil {
		return err
	}
	for _, hash := range hashes {
		if _, isPending := pending[hash]; !isPending {
			s.store.DropCheckpoint(hash)
		}
	}
	for hash, spec := range pending {
		cfg, mix, err := sim.ParseCanonicalSpec(spec)
		if err != nil {
			// Unreadable specs (schema drift, corruption) are dropped so
			// one bad entry cannot wedge every restart.
			s.store.remove(jobKind, hash)
			continue
		}
		j := newJob(hash, cfg, mix)
		// Workers have not started, but quarantine observers may already
		// be reading s.jobs from their own goroutines — take the lock.
		s.mu.Lock()
		s.jobs[hash] = j
		s.enqueueLocked(j)
		s.mu.Unlock()
	}
	return nil
}

// Submit validates and enqueues a job, returning its (possibly
// pre-existing) Job and whether this call created it. A submission
// whose result is already cached completes instantly.
func (s *Server) Submit(req JobRequest) (*Job, bool, error) {
	cfg, mix, err := req.Build()
	if err != nil {
		return nil, false, &RequestError{Err: err}
	}
	spec, err := sim.CanonicalSpec(cfg, mix)
	if err != nil {
		return nil, false, &RequestError{Err: err}
	}
	hash, err := sim.SpecHash(cfg, mix)
	if err != nil {
		return nil, false, &RequestError{Err: err}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if j, cached := s.existingLocked(hash, cfg, mix); j != nil {
		if cached {
			s.metrics.inc("serve.cache_hits")
		} else {
			s.metrics.inc("serve.jobs_deduped")
		}
		return j, false, nil
	}
	if s.draining {
		return nil, false, ErrDraining
	}
	if len(s.queue) >= s.opts.QueueDepth {
		s.metrics.inc("serve.queue_rejections")
		return nil, false, &QueueFullError{RetryAfter: s.retryAfterLocked()}
	}
	if err := s.store.PutSpec(hash, spec); err != nil {
		return nil, false, fmt.Errorf("serve: persisting spec: %w", err)
	}
	j := newJob(hash, cfg, mix)
	s.jobs[hash] = j
	s.enqueueLocked(j)
	s.metrics.inc("serve.jobs_submitted")
	s.cond.Signal()
	return j, true, nil
}

// existingLocked resolves a spec against work the server already has: a
// live job under the same hash (anything but failed or canceled — those
// released their on-disk state, and a resubmission is a request to try
// again), or a committed, integrity-verified store entry, materialized
// as a done job around the stored artifacts (a corrupt entry was just
// quarantined and reads as a miss). It returns nil when the spec needs
// a fresh run, and cached when the job came from the store. Caller
// holds s.mu.
func (s *Server) existingLocked(hash string, cfg sim.Config, mix []workload.AppParams) (j *Job, cached bool) {
	if j, ok := s.jobs[hash]; ok {
		j.mu.Lock()
		dead := j.state == StateFailed || j.state == StateCanceled
		j.mu.Unlock()
		if !dead {
			return j, false
		}
	}
	if !s.store.HasResult(hash) {
		return nil, false
	}
	// Answered from the store: every artifact, span trace included, is on
	// disk, so the record carries no recorder and no epoch ring.
	j = &Job{ID: hash, cfg: cfg, mix: mix, state: StateDone, cached: true, wait: make(chan struct{})}
	s.jobs[hash] = j
	return j, true
}

// enqueueLocked appends item to the FIFO and raises the high-water mark;
// a job also records the depth it was accepted at. Caller holds s.mu
// (and not the job's own lock).
func (s *Server) enqueueLocked(item workItem) {
	s.queue = append(s.queue, item)
	if j, ok := item.(*Job); ok {
		j.mu.Lock()
		j.queueDepthAtSubmit = len(s.queue)
		j.mu.Unlock()
	}
	if len(s.queue) > s.queueHigh {
		s.queueHigh = len(s.queue)
	}
}

// retryAfterLocked estimates (in whole seconds) when queue space is
// likely: one slot per worker per second is a deliberately conservative
// floor — clients back off harder, never busy-loop. The estimate is
// jittered ±25% so a burst of rejected clients doesn't re-arrive as a
// synchronized retry storm at the same instant.
func (s *Server) retryAfterLocked() int {
	est := float64(len(s.queue)+s.opts.Workers) / float64(s.opts.Workers)
	est *= 0.75 + rand.Float64()*0.5
	ra := int(est + 0.5)
	if ra < 1 {
		ra = 1
	}
	return ra
}

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Status returns the job's status with its live queue position filled
// in.
func (s *Server) Status(j *Job) Status {
	s.mu.Lock()
	pos := -1
	for i, q := range s.queue {
		if q == j {
			pos = i
			break
		}
	}
	s.mu.Unlock()
	return j.status(pos)
}

// Cancel stops a job: queued jobs are removed from the FIFO, running
// jobs get their context canceled (the run interrupts at the next
// chunk boundary). The job's on-disk state is removed so a restart
// does not resurrect it. Canceling a terminal job is a no-op reporting
// the current state.
func (s *Server) Cancel(id string) (Status, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Status{}, false
	}
	j.mu.Lock()
	switch {
	case j.state == StateQueued:
		// Fork-group members waiting on their warmup task are not in the
		// FIFO; the loop simply finds nothing to remove for them.
		for i, q := range s.queue {
			if q == workItem(j) {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		j.state = StateCanceled
		j.cancelRequested = true
		j.queueWait.End()
		j.root.End()
		j.bumpLocked()
		j.notifyLocked()
		s.metrics.inc("serve.jobs_canceled")
		s.store.remove(jobKind, id)
	case j.state == StateRunning:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	j.mu.Unlock()
	s.mu.Unlock()
	return s.Status(j), true
}

// workItem is one unit of pool work: a job's simulation, or a sweep
// group's shared warmup. Items execute on worker goroutines and count
// against the pool's occupancy.
type workItem interface {
	execute(s *Server)
}

func (j *Job) execute(s *Server) { s.runJob(j) }

// worker is one pool goroutine: dequeue, simulate, publish, repeat.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for (len(s.queue) == 0 || s.draining) && !s.stopping {
			s.cond.Wait()
		}
		if s.stopping {
			s.mu.Unlock()
			return
		}
		item := s.queue[0]
		s.queue = s.queue[1:]
		s.running++
		s.mu.Unlock()

		item.execute(s)

		s.mu.Lock()
		s.running--
		s.mu.Unlock()
	}
}

// panicInfo captures what a recovered worker panic left behind.
type panicInfo struct {
	value string
	stack string
}

// isolate runs f with panic isolation: a panicking engine (or a corrupt
// checkpoint that explodes mid-restore) costs one work item, reported
// with its captured stack, instead of killing the process and every
// other job with it.
func isolate(f func()) (panicked *panicInfo) {
	defer func() {
		if r := recover(); r != nil {
			panicked = &panicInfo{value: fmt.Sprint(r), stack: string(debug.Stack())}
		}
	}()
	f()
	return nil
}

// simulate runs the job's simulation. A job with a checkpoint in the
// store — a drain or periodic checkpoint from an earlier attempt, or the
// fork its sweep's warmup task wrote — continues from it instead of
// running cold; continued reports that it tried. A checkpoint of
// another warmup is refused. One that passes holds the job's spec once
// it takes the job's window, since the warmup hash covers everything
// else, and it checkpoints where this server says.
func (s *Server) simulate(ctx context.Context, j *Job, parent telemetry.SpanID) (res sim.Result, continued bool, err error) {
	telemetry.WithJob(ctx, j.ID, func(ctx context.Context) {
		if s.testHookRun != nil {
			s.testHookRun(j)
		}
		if continued = s.store.HasCheckpoint(j.ID); !continued {
			res, err = sim.RunContext(ctx, s.jobConfig(j, parent), j.mix)
			return
		}
		var ck *sim.Checkpoint
		if ck, err = sim.ReadCheckpoint(s.store.CheckpointPath(j.ID)); err != nil {
			return
		}
		var hash string
		if hash, err = sim.WarmupHash(j.cfg, j.mix); err != nil {
			return
		}
		if ck.WarmupHash != hash {
			err = fmt.Errorf("checkpoint warmup hash %.12s is not this job's (%.12s)", ck.WarmupHash, hash)
			return
		}
		ck.Cfg.MeasureCycles = j.cfg.MeasureCycles
		ck.Cfg.CheckpointPath = s.store.CheckpointPath(j.ID)
		ck.Cfg.CheckpointEvery = s.opts.CheckpointEvery
		// A checkpoint at the warmup/measure boundary is a sweep fork,
		// written by the warmup task. Anything later is an interrupted
		// run's own state.
		fork := ck.Measured == 0
		j.mu.Lock()
		j.resumed, j.forked = true, fork
		j.mu.Unlock()
		s.metrics.inc("serve.jobs_resumed")
		if fork {
			s.metrics.inc("serve.sweep_points_forked")
		}
		// The checkpoint keeps its telemetry parameters; the live wiring
		// is re-attached, and the run label becomes the job's own (a
		// fork's checkpoint carries its warmup group's label).
		res, err = sim.ResumeFromCheckpoint(ctx, ck, func(c *telemetry.Config) bool {
			j.wireTelemetry(c, parent)
			return true
		})
	})
	return res, continued, err
}

// requeueFromScratch drops the checkpoint of a job whose continued run
// failed for a reason other than an interrupt or a panic (the file no
// longer decodes or restores — an infrastructure fault, not a property
// of the spec) and puts the job back on the FIFO for a clean run. At
// most one retry per job: it reports false, changing nothing, for a job
// that already had its retry — the simulator is deterministic, so
// repeated failure means the problem is not transient.
func (s *Server) requeueFromScratch(j *Job, cause error) bool {
	j.mu.Lock()
	if j.retries > 0 {
		j.mu.Unlock()
		return false
	}
	fork := j.forked
	j.state = StateQueued
	j.resumed, j.forked = false, false
	j.retries++
	j.cancel = nil
	j.bumpLocked()
	j.mu.Unlock()
	log.Printf("serve: job %s: checkpoint unusable (%v), rerunning from scratch", j.ID, cause)
	s.store.DropCheckpoint(j.ID)
	s.metrics.inc("serve.checkpoints_discarded")
	if fork {
		s.metrics.inc("serve.sweep_fork_fallbacks")
	}
	s.metrics.inc("serve.jobs_retried")
	s.mu.Lock()
	s.enqueueLocked(j)
	s.cond.Signal()
	s.mu.Unlock()
	return true
}

// runJob executes one job end to end and publishes its outcome. The
// whole execution carries a pprof "job" label (the trace ID), and every
// phase — run, encode, cache commit — is recorded as a span under the
// job's root; on success the finished tree is committed to the store as
// the spans.json artifact.
func (s *Server) runJob(j *Job) {
	base := context.Background()
	var ctx context.Context
	var cancel context.CancelFunc
	if s.opts.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(base, s.opts.JobTimeout)
	} else {
		ctx, cancel = context.WithCancel(base)
	}
	defer cancel()
	j.mu.Lock()
	if j.state != StateQueued { // canceled between dequeue and here; Cancel ended the spans
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.cancel = cancel
	j.queueWait.End()
	j.bumpLocked()
	j.mu.Unlock()

	s.metrics.observe("serve.job_queue_wait_us", uint64(time.Since(j.enqueued).Microseconds()))
	runStart := time.Now()

	runSpan := j.spans.StartSpan("serve.run", j.root.ID())
	var res sim.Result
	var continued bool
	var err error
	panicked := isolate(func() { res, continued, err = s.simulate(ctx, j, runSpan.ID()) })
	runSpan.End()

	s.metrics.observe("serve.job_run_us", uint64(time.Since(runStart).Microseconds()))

	switch {
	case panicked != nil:
		// Clean the store first, then announce: a client that observes the
		// terminal state must never find half-removed on-disk state.
		s.store.remove(jobKind, j.ID)
		s.metrics.inc("serve.panics_recovered")
		s.metrics.inc("serve.jobs_failed")
		log.Printf("serve: job %s: worker panic recovered: %s", j.ID, panicked.value)
		j.root.End()
		j.mu.Lock()
		j.stack = panicked.stack
		j.mu.Unlock()
		j.setState(StateFailed, "panic: "+panicked.value)
		return
	case err == nil:
		s.metrics.merge(res.Histograms)
		encSpan := j.spans.StartSpan("serve.encode", j.root.ID())
		result, encErr := EncodeResult(res)
		epochCSV := encodeEpochCSV(res)
		encSpan.End()
		if encErr == nil {
			commitSpan := j.spans.StartSpan("serve.cache_commit", j.root.ID())
			encErr = s.store.PutResult(j.ID, result, epochCSV)
			commitSpan.End()
		}
		if encErr != nil {
			s.store.remove(jobKind, j.ID)
			s.metrics.inc("serve.jobs_failed")
			j.root.End()
			j.setState(StateFailed, encErr.Error())
			return
		}
		// Close the lifecycle and publish the span tree next to the other
		// artifacts before announcing Done, which drops the recorder: a
		// client that sees the terminal state finds spans.json on disk.
		// Best-effort: the result is already committed, and without the
		// file GET /v1/jobs/{id}/spans answers 404.
		j.root.End()
		if spansErr := s.store.putSpans(j.ID, j.spans.WriteTrace); spansErr != nil {
			s.metrics.inc("serve.span_artifact_failures")
		}
		s.metrics.inc("serve.jobs_completed")
		j.setState(StateDone, "")
		return
	case errors.Is(err, sim.ErrInterrupted):
		j.mu.Lock()
		wasCancel := j.cancelRequested
		j.mu.Unlock()
		switch {
		case wasCancel:
			s.store.remove(jobKind, j.ID)
			s.metrics.inc("serve.jobs_canceled")
			j.setState(StateCanceled, "")
		case ctx.Err() == context.DeadlineExceeded:
			// The per-job deadline fired. This is an explicit failure, not
			// a checkpoint: a job that cannot finish inside its budget
			// must not be silently resumed into the same budget overrun.
			s.store.remove(jobKind, j.ID)
			s.metrics.inc("serve.jobs_deadline_exceeded")
			s.metrics.inc("serve.jobs_failed")
			j.setState(StateFailed, fmt.Sprintf("job exceeded its %s wall-clock deadline", s.opts.JobTimeout))
		case s.store.HasCheckpoint(j.ID):
			s.metrics.inc("serve.jobs_checkpointed")
			j.setState(StateCheckpointed, "")
		default:
			s.metrics.inc("serve.jobs_interrupted")
			j.setState(StateInterrupted, "")
		}
	default:
		if continued && s.requeueFromScratch(j, err) {
			return
		}
		s.store.remove(jobKind, j.ID)
		s.metrics.inc("serve.jobs_failed")
		j.setState(StateFailed, err.Error())
	}
	j.root.End()
}

// jobConfig equips the job's semantic config with the server's live
// observability (wireTelemetry) and crash-safe checkpointing into the
// store. None of these additions
// changes what the run computes, so the artifacts stay byte-identical
// to a direct sim.Run of the bare spec with default telemetry
// (EncodeResult strips the wall-clock-derived fields).
func (s *Server) jobConfig(j *Job, parent telemetry.SpanID) sim.Config {
	cfg := j.cfg
	cfg.Telemetry = &telemetry.Config{}
	j.wireTelemetry(cfg.Telemetry, parent)
	cfg.CheckpointPath = s.store.CheckpointPath(j.ID)
	cfg.CheckpointEvery = s.opts.CheckpointEvery
	return cfg
}

// Draining reports whether Shutdown has begun (readiness signal).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains the server: intake stops immediately (submissions get
// 503, workers pick up no new jobs), running jobs get until the drain
// deadline to finish, and whatever is still running then is interrupted:
// it writes a checkpoint and lands in StateCheckpointed, so the next
// process resumes it without recomputing finished work (a job still in
// warmup writes none and lands in StateInterrupted).
// Queued jobs keep their persisted specs and are re-queued on restart.
// Blocks until every worker has exited.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()

	deadline := time.NewTimer(s.opts.DrainTimeout)
	defer deadline.Stop()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
drain:
	for {
		s.mu.Lock()
		idle := s.running == 0
		s.mu.Unlock()
		if idle {
			break
		}
		select {
		case <-tick.C:
		case <-deadline.C:
			break drain
		case <-ctx.Done():
			break drain
		}
	}

	// Deadline passed: interrupt what is left. RunContext notices within
	// one measurement chunk and checkpoints where it can. Shared warmups
	// are interrupted too — their members' specs are persisted, so the
	// next process reruns them (cold) instead of losing the sweep.
	s.mu.Lock()
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state == StateRunning && j.cancel != nil {
			j.cancel()
		}
		j.mu.Unlock()
	}
	for t := range s.warmups {
		t.cancel()
	}
	s.mu.Unlock()

	for {
		s.mu.Lock()
		idle := s.running == 0
		if idle {
			s.stopping = true
			s.cond.Broadcast()
		}
		s.mu.Unlock()
		if idle {
			break
		}
		<-tick.C
	}
	s.wg.Wait()
	return nil
}

// Store exposes the content-addressed result cache (read paths for the
// HTTP layer and tests).
func (s *Server) Store() *Store { return s.store }

// ErrDraining rejects submissions during shutdown.
var ErrDraining = errors.New("serve: shutting down")

// RequestError wraps a user error (HTTP 400).
type RequestError struct{ Err error }

func (e *RequestError) Error() string { return e.Err.Error() }
func (e *RequestError) Unwrap() error { return e.Err }

// QueueFullError rejects a submission because the FIFO is at capacity
// (HTTP 429); RetryAfter is the suggested backoff in seconds.
type QueueFullError struct{ RetryAfter int }

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("serve: queue full, retry after %ds", e.RetryAfter)
}
