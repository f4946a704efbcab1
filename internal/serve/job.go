package serve

import (
	"context"
	"sync"
	"time"

	"nucasim/internal/sim"
	"nucasim/internal/sweep"
	"nucasim/internal/telemetry"
	"nucasim/internal/workload"
)

// JobRequest is the body of POST /v1/jobs. It is sweep.Base, the one
// run request: a sweep's base is literally a job request, and its Build
// is the only mapping from a request to a sim.Config.
type JobRequest = sweep.Base

// JobState is the lifecycle of one submitted job.
type JobState string

const (
	// StateQueued: accepted, waiting for a worker (FIFO).
	StateQueued JobState = "queued"
	// StateRunning: a worker is simulating it right now.
	StateRunning JobState = "running"
	// StateDone: artifacts are in the content-addressed cache.
	StateDone JobState = "done"
	// StateFailed: the run errored; the Error field says why.
	StateFailed JobState = "failed"
	// StateCanceled: removed by DELETE before completing.
	StateCanceled JobState = "canceled"
	// StateCheckpointed: the shutdown drain interrupted it and a
	// crash-safe checkpoint was written; a restarted server resumes it
	// from where it stopped instead of recomputing.
	StateCheckpointed JobState = "checkpointed"
	// StateInterrupted: the drain interrupted a scheme that cannot
	// checkpoint; a restarted server reruns it from scratch.
	StateInterrupted JobState = "interrupted"
)

// terminal reports whether the state can no longer change (short of a
// server restart re-queueing checkpointed/interrupted work).
func (s JobState) terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCanceled, StateCheckpointed, StateInterrupted:
		return true
	}
	return false
}

// Job is one submission's full lifecycle. The immutable identity fields
// are set at creation; everything observable mid-flight lives behind mu
// because HTTP handlers read while the worker goroutine writes.
type Job struct {
	// ID is the canonical-spec SHA-256 — the content address of the
	// job's artifacts. Identical submissions share one Job.
	ID  string
	cfg sim.Config
	mix []workload.AppParams
	// enqueued is when the job entered the FIFO; the queue-wait histogram
	// measures from here to the moment a worker picks the job up.
	enqueued time.Time

	// spans is the job's wall-clock flight recorder; root covers the
	// whole lifecycle ("job") and queueWait the time spent in the FIFO.
	// The worker nests serve.run / serve.encode / serve.cache_commit and
	// every simulation phase beneath root, publishes the finished tree as
	// the spans.json artifact, and clears all three under mu as the job
	// turns done; a cache-loaded job never has them. Handlers read spans
	// under mu.
	spans     *telemetry.SpanRecorder
	root      telemetry.Span
	queueWait telemetry.Span
	// queueDepthAtSubmit is the FIFO depth (including this job) observed
	// when the job was accepted — per-job context for the server-wide
	// serve.queue_depth_high_water gauge.
	queueDepthAtSubmit int

	mu       sync.Mutex
	state    JobState
	err      string
	stack    string // captured goroutine stack when a worker panic failed the job
	retries  int    // from-scratch reruns after transient failures (bad checkpoint)
	cached   bool   // served straight from the result cache, no run
	resumed  bool   // continued from a checkpoint in the store (restart resume or fork)
	forked   bool   // that checkpoint is its sweep group's shared warmup
	progress telemetry.Progress
	epochs   *telemetry.Ring // live OnEpoch samples; nil once done (see epoch.csv)
	nEpochs  int             // samples observed via the OnEpoch hook
	wait     chan struct{}   // closed+replaced on every update (broadcast)

	// subscribers observe the job reaching a resolved state — done,
	// failed or canceled, NOT checkpointed/interrupted (those continue
	// after a restart). Sweeps use this to track point completion.
	// Invoked on a fresh goroutine, never under mu.
	subscribers []func(JobState)

	cancel          context.CancelFunc // non-nil while running
	cancelRequested bool
}

func newJob(id string, cfg sim.Config, mix []workload.AppParams) *Job {
	j := &Job{
		ID:       id,
		cfg:      cfg,
		mix:      mix,
		enqueued: time.Now(),
		state:    StateQueued,
		epochs:   telemetry.NewRing(telemetry.DefaultEpochCapacity),
		wait:     make(chan struct{}),
		spans:    telemetry.NewSpanRecorder(telemetry.SpanConfig{Process: "nucaserve"}),
	}
	j.root = j.spans.StartSpan("job", 0)
	j.queueWait = j.spans.StartSpan("queue.wait", j.root.ID())
	return j
}

// bumpLocked wakes every streamer blocked on the job. Callers hold mu.
func (j *Job) bumpLocked() {
	close(j.wait)
	j.wait = make(chan struct{})
}

// resolved reports a state that settles the job's outcome for good:
// terminal states minus the two a restarted server continues.
func (s JobState) resolved() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// subscribe registers f to run once the job resolves (done, failed or
// canceled). A job that is already resolved fires immediately. f runs
// on its own goroutine so subscribers may take any lock.
func (j *Job) subscribe(f func(JobState)) {
	j.mu.Lock()
	if j.state.resolved() {
		state := j.state
		j.mu.Unlock()
		go f(state)
		return
	}
	j.subscribers = append(j.subscribers, f)
	j.mu.Unlock()
}

// notifyLocked dispatches subscribers if the job just resolved. Callers
// hold mu; each subscriber gets its own goroutine.
func (j *Job) notifyLocked() {
	if !j.state.resolved() || len(j.subscribers) == 0 {
		return
	}
	subs := j.subscribers
	j.subscribers = nil
	state := j.state
	for _, f := range subs {
		go f(state)
	}
}

// onEpoch is the telemetry.Config.OnEpoch hook: it runs on the worker's
// simulation goroutine at every repartition evaluation. The sample's
// slices are freshly allocated by the sharing engine and never written
// again after publication, so sharing them with HTTP readers is safe
// once the handoff goes through mu.
func (j *Job) onEpoch(s telemetry.EpochSample) {
	j.mu.Lock()
	j.epochs.Append(s)
	j.nEpochs++
	j.bumpLocked()
	j.mu.Unlock()
}

// onProgress is the telemetry.Config.OnProgress hook; same goroutine
// discipline as onEpoch.
func (j *Job) onProgress(p telemetry.Progress) {
	j.mu.Lock()
	j.progress = p
	j.bumpLocked()
	j.mu.Unlock()
}

// wireTelemetry equips c with the job's live observability: its run
// label, the epoch and progress hooks feeding its stream, and its span
// recorder nesting simulation phases under parent. Go runtime metrics
// are not part of a run: /metrics reads its runtime gauges at scrape
// time.
func (j *Job) wireTelemetry(c *telemetry.Config, parent telemetry.SpanID) {
	c.Run = j.ID
	c.OnEpoch = j.onEpoch
	c.OnProgress = j.onProgress
	c.Spans = j.spans
	c.SpanParent = parent
}

// setState transitions the job and wakes streamers. A job turning done
// has committed its artifacts, so it drops its recorder and epoch ring.
func (j *Job) setState(s JobState, errMsg string) {
	j.mu.Lock()
	j.state = s
	j.err = errMsg
	if s.terminal() {
		j.cancel = nil
	}
	if s == StateDone {
		j.spans, j.root, j.queueWait, j.epochs = nil, telemetry.Span{}, telemetry.Span{}, nil
	}
	j.bumpLocked()
	j.notifyLocked()
	j.mu.Unlock()
}

// Status is the wire shape of GET /v1/jobs/{id} and of "status" events
// on the NDJSON stream.
type Status struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// TraceID correlates everything observable about the job — NDJSON
	// progress events, pprof "job" labels, and the spans.json wall-clock
	// trace — and equals the job ID (the canonical-spec hash).
	TraceID       string `json:"trace_id"`
	QueuePosition int    `json:"queue_position,omitempty"` // jobs ahead; only while queued
	// QueueDepthAtSubmit is the FIFO depth (including this job) when it
	// was accepted — how congested the server was at submission.
	QueueDepthAtSubmit int  `json:"queue_depth_at_submit,omitempty"`
	Cached             bool `json:"cached,omitempty"`
	Resumed            bool `json:"resumed,omitempty"`
	// Forked marks a sweep point whose measurement window resumed from
	// its warmup group's shared checkpoint instead of re-running warmup.
	Forked bool   `json:"forked,omitempty"`
	Error  string `json:"error,omitempty"`
	// Stack is the goroutine stack captured when a worker panic failed
	// the job — the post-mortem travels with the job record.
	Stack string `json:"stack,omitempty"`
	// Retries counts from-scratch reruns after transient failures (e.g.
	// an undecodable checkpoint that was deleted).
	Retries    int                `json:"retries,omitempty"`
	Progress   telemetry.Progress `json:"progress,omitempty"`
	EpochsSeen int                `json:"epochs_seen"` // epoch samples observed live by this process
	Scheme     string             `json:"scheme"`
	Apps       []string           `json:"apps"`
}

// status snapshots the job; queuePos is computed by the server (-1 when
// not queued).
func (j *Job) status(queuePos int) Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:                 j.ID,
		State:              j.state,
		TraceID:            j.ID,
		QueueDepthAtSubmit: j.queueDepthAtSubmit,
		Cached:             j.cached,
		Resumed:            j.resumed,
		Forked:             j.forked,
		Error:              j.err,
		Stack:              j.stack,
		Retries:            j.retries,
		Progress:           j.progress,
		EpochsSeen:         j.nEpochs,
		Scheme:             string(j.cfg.Scheme),
	}
	for _, p := range j.mix {
		st.Apps = append(st.Apps, p.Name)
	}
	if j.state == StateQueued && queuePos >= 0 {
		st.QueuePosition = queuePos
	}
	return st
}
