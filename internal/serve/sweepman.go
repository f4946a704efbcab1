package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"sync"

	"nucasim/internal/sim"
	"nucasim/internal/sweep"
	"nucasim/internal/telemetry"
)

// SweepState is the lifecycle of one submitted sweep.
type SweepState string

const (
	// SweepPending: points are queued, running, or waiting on warmups.
	SweepPending SweepState = "pending"
	// SweepDone: every point completed and the aggregate table is
	// committed to the sweep store.
	SweepDone SweepState = "done"
	// SweepFailed: at least one point failed, or aggregation/commit did.
	SweepFailed SweepState = "failed"
	// SweepCanceled: removed by DELETE (or a point was) before completing.
	SweepCanceled SweepState = "canceled"
)

// Sweep is one parameter sweep's lifecycle: the expanded point grid,
// one Job per point (shared with any direct submissions of the same
// spec — points dedupe through the ordinary content-addressed cache),
// and the resolution bookkeeping that triggers aggregation once every
// point settles.
type Sweep struct {
	// ID is sweep.ID over the name and the expanded point set — the
	// content address of the sweep's aggregate artifacts.
	ID     string
	spec   sweep.Spec
	points []sweep.Point

	mu    sync.Mutex
	state SweepState
	err   string
	// jobs holds one entry per point, fixed at attach time (nil for a
	// sweep served whole from the store). created marks points whose Job
	// this sweep materialized — the cancellation scope: DELETE never
	// cancels a job some other submission is waiting on.
	jobs        []*Job
	created     []bool
	resolvedPts []bool
	resolved    int
	done        int
	failed      int
	canceledPts int
	// cachedPoints counts points answered straight from the result
	// cache; warmupGroups/forkedPoints describe the fork schedule.
	cachedPoints    int
	warmupGroups    int
	forkedPoints    int
	cached          bool // whole sweep served from a committed store entry
	cancelRequested bool
	tasks           []*warmupTask
	wait            chan struct{} // closed+replaced on every update (broadcast)
}

// bumpLocked wakes every streamer blocked on the sweep. Callers hold mu.
func (sw *Sweep) bumpLocked() {
	close(sw.wait)
	sw.wait = make(chan struct{})
}

func (sw *Sweep) setState(state SweepState, errMsg string) {
	sw.mu.Lock()
	sw.state = state
	sw.err = errMsg
	sw.bumpLocked()
	sw.mu.Unlock()
}

// warmupTask is the pool work item for one fork group's shared warmup:
// run the group's warmup once (sim.WarmupCheckpoint), store the
// checkpoint as every still-queued member's own checkpoint.bin, and
// only then enqueue the members — so a group's measurement windows fan
// out from one warmup instead of each paying for its own, and each
// member continues like any checkpointed job, across a restart too.
type warmupTask struct {
	sw      *Sweep
	hash    string // the group's warmup hash
	members []*Job
	ctx     context.Context
	// cancel interrupts the warmup mid-run (shutdown drain or sweep
	// cancellation); the warmup loop notices at the next segment boundary.
	cancel context.CancelFunc
}

func (t *warmupTask) execute(s *Server) {
	s.mu.Lock()
	s.warmups[t] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.warmups, t)
		s.mu.Unlock()
	}()

	// Members canceled while the task waited in the FIFO drop out here;
	// whoever canceled them already published their terminal state.
	var live []*Job
	for _, j := range t.members {
		j.mu.Lock()
		if j.state == StateQueued {
			live = append(live, j)
		}
		j.mu.Unlock()
	}
	if len(live) == 0 {
		return
	}

	// Telemetry runs live (adaptive repartitions in the timed warmup are
	// checkpointed state) under the group's label and without hooks: the
	// warmup belongs to every member, and each reattaches its own at resume.
	var ck *sim.Checkpoint
	var err error
	panicked := isolate(func() {
		cfg := live[0].cfg
		cfg.Telemetry = &telemetry.Config{Run: "warmup-" + t.hash[:12]}
		ck, err = sim.WarmupCheckpoint(t.ctx, cfg, live[0].mix)
	})
	switch {
	case panicked != nil:
		// A panicking warmup would panic the members' cold runs at the
		// same point — but each cold run carries its own isolation and
		// fails its own job with a captured stack, which is the honest
		// per-point outcome. Fall through to cold scheduling.
		log.Printf("serve: sweep %s: warmup %.12s panicked (%s), rerunning members cold", t.sw.ID, t.hash, panicked.value)
		s.metrics.inc("serve.sweep_warmup_failures")
	case err != nil && t.ctx.Err() != nil:
		// Interrupted: shutdown leaves the members' persisted specs for
		// the next process to recover; a sweep cancellation is about to
		// cancel the members itself. Either way, do not reschedule.
		log.Printf("serve: sweep %s: warmup %.12s interrupted", t.sw.ID, t.hash)
		return
	case err != nil:
		log.Printf("serve: sweep %s: warmup %.12s failed (%v), rerunning members cold", t.sw.ID, t.hash, err)
		s.metrics.inc("serve.sweep_warmup_failures")
	default:
		s.metrics.inc("serve.sweep_warmups_run")
		s.writeForks(ck, live)
	}
	s.mu.Lock()
	for _, j := range live {
		s.enqueueLocked(j)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// writeForks stores the warmup checkpoint, encoded once, as each
// still-queued member's checkpoint.bin; simulate gives it the member's
// window, checkpoint path and cadence. Each write holds the member's
// lock after re-checking its state, so a concurrent cancel either lands
// first (nothing is written) or removes the entry, checkpoint included,
// after it. A member whose write fails runs cold.
func (s *Server) writeForks(ck *sim.Checkpoint, members []*Job) {
	data, err := ck.Encode()
	if err != nil {
		log.Printf("serve: encoding fork checkpoint: %v (running %d members cold)", err, len(members))
		return
	}
	for _, j := range members {
		j.mu.Lock()
		if j.state == StateQueued {
			if err := writeBytes(s.store.CheckpointPath(j.ID), data); err != nil {
				log.Printf("serve: job %s: writing fork checkpoint: %v (running cold)", j.ID, err)
			} else {
				j.forked = true
			}
		}
		j.mu.Unlock()
	}
}

// maxSweepPoints resolves the configured expansion cap.
func (s *Server) maxSweepPoints() int {
	if s.opts.MaxSweepPoints > 0 {
		return s.opts.MaxSweepPoints
	}
	return sweep.DefaultMaxPoints
}

// SubmitSweep expands a sweep spec into its point grid and schedules
// it, returning the (possibly pre-existing) Sweep and whether this call
// created it. Malformed specs — empty axes, duplicate points, grids
// over the cap — are RequestErrors (HTTP 400). Points whose results are
// already cached complete instantly; points equal to jobs already in
// flight adopt them; the rest are scheduled, with points that share
// warmup-relevant configuration fanned out from one shared warmup
// checkpoint instead of each re-running warmup.
func (s *Server) SubmitSweep(spec sweep.Spec) (*Sweep, bool, error) {
	points, err := sweep.Expand(spec, s.maxSweepPoints())
	if err != nil {
		var se *sweep.SpecError
		if errors.As(err, &se) {
			return nil, false, &RequestError{Err: err}
		}
		return nil, false, err
	}
	canonical, err := sweep.Canonical(spec)
	if err != nil {
		return nil, false, &RequestError{Err: err}
	}
	id := sweep.ID(spec.Name, points)

	s.mu.Lock()
	defer s.mu.Unlock()
	if sw, ok := s.sweeps[id]; ok {
		sw.mu.Lock()
		replaceable := sw.state == SweepFailed || sw.state == SweepCanceled
		sw.mu.Unlock()
		if !replaceable {
			s.metrics.inc("serve.sweeps_deduped")
			return sw, false, nil
		}
		// Failed and canceled sweeps released their on-disk state; an
		// explicit resubmission is a request to try again.
	}
	if s.store.check(sweepKind, id) == nil {
		sw := &Sweep{ID: id, spec: spec, points: points,
			state: SweepDone, cached: true, wait: make(chan struct{})}
		s.sweeps[id] = sw
		s.metrics.inc("serve.sweeps_cached")
		return sw, false, nil
	}
	if s.draining {
		return nil, false, ErrDraining
	}
	if err := s.store.putSpec(sweepKind, id, canonical); err != nil {
		return nil, false, fmt.Errorf("serve: persisting sweep spec: %w", err)
	}
	sw, err := s.attachSweepLocked(id, spec, points)
	if err != nil {
		delete(s.sweeps, id)
		s.store.remove(sweepKind, id)
		return nil, false, err
	}
	s.metrics.inc("serve.sweeps_submitted")
	s.metrics.add("serve.sweep_points_expanded", uint64(len(points)))
	return sw, true, nil
}

// attachSweepLocked builds the Sweep record, materializes or adopts one
// Job per point, schedules the fresh ones (fork groups get a shared
// warmupTask; everything else enqueues cold), and subscribes to every
// point's resolution. Caller holds s.mu.
func (s *Server) attachSweepLocked(id string, spec sweep.Spec, points []sweep.Point) (*Sweep, error) {
	sw := &Sweep{
		ID: id, spec: spec, points: points,
		state:       SweepPending,
		jobs:        make([]*Job, len(points)),
		created:     make([]bool, len(points)),
		resolvedPts: make([]bool, len(points)),
		wait:        make(chan struct{}),
	}
	s.sweeps[id] = sw
	for i, p := range points {
		// In flight (or done) under the same content address: the sweep
		// adopts the existing job rather than re-running it.
		if j, cached := s.existingLocked(p.SpecHash, p.Cfg, p.Mix); j != nil {
			sw.jobs[i] = j
			if cached {
				sw.cachedPoints++
				s.metrics.inc("serve.sweep_points_cached")
			} else {
				s.metrics.inc("serve.sweep_points_deduped")
			}
			continue
		}
		pspec, err := sim.CanonicalSpec(p.Cfg, p.Mix)
		if err == nil {
			err = s.store.PutSpec(p.SpecHash, pspec)
		}
		if err != nil {
			return nil, fmt.Errorf("serve: persisting sweep point %q: %w", p.Label, err)
		}
		j := newJob(p.SpecHash, p.Cfg, p.Mix)
		s.jobs[p.SpecHash] = j
		sw.jobs[i] = j
		sw.created[i] = true
	}

	// Schedule the points this sweep created. Fork groups with at least
	// two live members share one warmup task; their member jobs stay out
	// of the FIFO until the task has written their fork checkpoints.
	// Every other point enqueues cold.
	for _, g := range sweep.Plan(points) {
		var members []*Job
		for _, pi := range g.Points {
			if sw.created[pi] {
				members = append(members, sw.jobs[pi])
			}
		}
		if len(members) == 0 {
			continue
		}
		if len(members) >= 2 {
			ctx, cancel := context.WithCancel(context.Background())
			t := &warmupTask{sw: sw, hash: g.WarmupHash, members: members, ctx: ctx, cancel: cancel}
			sw.tasks = append(sw.tasks, t)
			sw.warmupGroups++
			sw.forkedPoints += len(members)
			s.enqueueLocked(t)
		} else {
			for _, j := range members {
				s.enqueueLocked(j)
			}
		}
	}
	s.cond.Broadcast()

	// Subscribe last, with the record fully wired: already-resolved
	// points (cache hits) fire immediately on their own goroutines.
	for i := range points {
		i := i
		sw.jobs[i].subscribe(func(state JobState) {
			s.sweepPointResolved(sw, i, state)
		})
	}
	return sw, nil
}

// sweepPointResolved is the per-point subscriber: idempotent accounting
// of each point's final state, triggering finalization once the last
// point settles.
func (s *Server) sweepPointResolved(sw *Sweep, idx int, state JobState) {
	sw.mu.Lock()
	if sw.resolvedPts[idx] || sw.state != SweepPending {
		sw.mu.Unlock()
		return
	}
	sw.resolvedPts[idx] = true
	sw.resolved++
	switch state {
	case StateDone:
		sw.done++
	case StateFailed:
		sw.failed++
	case StateCanceled:
		sw.canceledPts++
	}
	sw.bumpLocked()
	complete := sw.resolved == len(sw.points)
	sw.mu.Unlock()
	if complete {
		s.finalizeSweep(sw)
	}
}

// finalizeSweep settles a sweep whose every point has resolved: any
// failure fails the sweep, any cancellation cancels it, and a clean
// board aggregates the point results into the committed table
// artifacts. Failed and canceled sweeps release their on-disk entry so
// a restart does not resurrect them.
func (s *Server) finalizeSweep(sw *Sweep) {
	sw.mu.Lock()
	if sw.state != SweepPending {
		sw.mu.Unlock()
		return
	}
	failed, canceled, wasCancel := sw.failed, sw.canceledPts, sw.cancelRequested
	sw.mu.Unlock()
	switch {
	case failed > 0:
		s.store.remove(sweepKind, sw.ID)
		s.metrics.inc("serve.sweeps_failed")
		sw.setState(SweepFailed, fmt.Sprintf("%d of %d points failed", failed, len(sw.points)))
	case canceled > 0 || wasCancel:
		s.store.remove(sweepKind, sw.ID)
		s.metrics.inc("serve.sweeps_canceled")
		sw.setState(SweepCanceled, "")
	default:
		s.aggregateSweep(sw)
	}
}

// aggregateSweep reads every point's committed (integrity-verified)
// result back from the cache, folds them into the sweep's stats.Table,
// and commits table.json + table.csv atomically under the sweep's store
// entry.
func (s *Server) aggregateSweep(sw *Sweep) {
	results := make([]sim.Result, len(sw.points))
	for i, p := range sw.points {
		data, err := s.store.ReadResult(p.SpecHash)
		if err == nil {
			results[i], err = DecodeResult(data)
		}
		if err != nil {
			s.store.remove(sweepKind, sw.ID)
			s.metrics.inc("serve.sweeps_failed")
			sw.setState(SweepFailed, fmt.Sprintf("aggregating point %q: %v", p.Label, err))
			return
		}
	}
	tbl := sweep.Aggregate(sw.spec.Name, sw.points, results)
	tableJSON, err := json.MarshalIndent(tbl, "", "  ")
	var csv bytes.Buffer
	if err == nil {
		tableJSON = append(tableJSON, '\n')
		err = tbl.WriteCSV(&csv)
	}
	if err == nil {
		err = s.store.commit(sweepKind, sw.ID, csv.Bytes(), tableJSON)
	}
	if err != nil {
		s.store.remove(sweepKind, sw.ID)
		s.metrics.inc("serve.sweeps_failed")
		sw.setState(SweepFailed, "committing sweep artifacts: "+err.Error())
		return
	}
	s.metrics.inc("serve.sweeps_completed")
	sw.setState(SweepDone, "")
}

// Sweep looks up a sweep by ID.
func (s *Server) Sweep(id string) (*Sweep, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	return sw, ok
}

// CancelSweep cancels a pending sweep: un-run shared warmups are
// interrupted and every unresolved point job this sweep created is
// canceled. Adopted jobs — ones some other submission (or sweep) is
// waiting on — keep running; their eventual resolution still counts
// against this sweep, which settles as canceled either way. Canceling a
// settled sweep is a no-op reporting the current state.
func (s *Server) CancelSweep(id string) (SweepStatus, bool) {
	s.mu.Lock()
	sw, ok := s.sweeps[id]
	s.mu.Unlock()
	if !ok {
		return SweepStatus{}, false
	}
	sw.mu.Lock()
	if sw.state != SweepPending {
		sw.mu.Unlock()
		return s.SweepStatus(sw), true
	}
	sw.cancelRequested = true
	tasks := append([]*warmupTask(nil), sw.tasks...)
	var cancels []string
	for i, j := range sw.jobs {
		if sw.created[i] && !sw.resolvedPts[i] {
			cancels = append(cancels, j.ID)
		}
	}
	sw.bumpLocked()
	sw.mu.Unlock()
	for _, t := range tasks {
		t.cancel()
	}
	for _, jid := range cancels {
		s.Cancel(jid)
	}
	return s.SweepStatus(sw), true
}

// recoverSweeps re-attaches every sweep the previous process left
// unfinished. Runs after job recovery, so pending point jobs are
// already in s.jobs (and the FIFO) and are adopted; committed points
// read from the cache; points missing entirely are created and
// scheduled — with fork grouping, so even a recovered sweep shares
// warmups where it can. Sweeps whose spec no longer expands (schema
// drift, a lowered point cap) are dropped with a log line rather than
// wedging every restart.
func (s *Server) recoverSweeps() error {
	pending, err := s.store.pending(sweepKind)
	if err != nil {
		return err
	}
	for id, specBytes := range pending {
		spec, err := sweep.ParseSpec(specBytes)
		var points []sweep.Point
		if err == nil {
			points, err = sweep.Expand(spec, s.maxSweepPoints())
		}
		if err == nil && sweep.ID(spec.Name, points) != id {
			err = errors.New("stored sweep id does not match its spec")
		}
		if err != nil {
			log.Printf("serve: dropping unrecoverable sweep %s: %v", id, err)
			s.store.remove(sweepKind, id)
			continue
		}
		s.mu.Lock()
		_, aerr := s.attachSweepLocked(id, spec, points)
		if aerr != nil {
			delete(s.sweeps, id)
		}
		s.mu.Unlock()
		if aerr != nil {
			log.Printf("serve: dropping unrecoverable sweep %s: %v", id, aerr)
			s.store.remove(sweepKind, id)
		}
	}
	return nil
}

// SweepPointStatus is one point's row in the sweep status wire shape:
// enough for a client to fetch the point's own artifacts via the jobs
// API (JobID is the point's canonical-spec hash).
type SweepPointStatus struct {
	Label  string   `json:"label"`
	JobID  string   `json:"job_id"`
	State  JobState `json:"state"`
	Forked bool     `json:"forked,omitempty"`
	Cached bool     `json:"cached,omitempty"`
}

// SweepStatus is the wire shape of GET /v1/sweeps/{id} and of "sweep"
// events on its NDJSON stream.
type SweepStatus struct {
	ID       string     `json:"id"`
	Name     string     `json:"name,omitempty"`
	State    SweepState `json:"state"`
	Points   int        `json:"points"`
	Resolved int        `json:"resolved"`
	Done     int        `json:"done"`
	Failed   int        `json:"failed,omitempty"`
	Canceled int        `json:"canceled,omitempty"`
	// CachedPoints counts points answered straight from the result cache;
	// WarmupGroups and ForkedPoints describe the shared-warmup schedule.
	CachedPoints int `json:"cached_points,omitempty"`
	WarmupGroups int `json:"warmup_groups,omitempty"`
	ForkedPoints int `json:"forked_points,omitempty"`
	// Cached marks a sweep answered whole from a committed store entry.
	Cached    bool               `json:"cached,omitempty"`
	Error     string             `json:"error,omitempty"`
	PointJobs []SweepPointStatus `json:"point_jobs,omitempty"`
}

// SweepStatus snapshots a sweep, including per-point job states.
func (s *Server) SweepStatus(sw *Sweep) SweepStatus {
	sw.mu.Lock()
	st := SweepStatus{
		ID:           sw.ID,
		Name:         sw.spec.Name,
		State:        sw.state,
		Points:       len(sw.points),
		Resolved:     sw.resolved,
		Done:         sw.done,
		Failed:       sw.failed,
		Canceled:     sw.canceledPts,
		CachedPoints: sw.cachedPoints,
		WarmupGroups: sw.warmupGroups,
		ForkedPoints: sw.forkedPoints,
		Cached:       sw.cached,
		Error:        sw.err,
	}
	jobs := sw.jobs
	cached := sw.cached
	sw.mu.Unlock()
	for i, p := range sw.points {
		ps := SweepPointStatus{Label: p.Label, JobID: p.SpecHash}
		if cached || jobs == nil || jobs[i] == nil {
			// The committed aggregate exists only when every point did.
			ps.State = StateDone
		} else {
			j := jobs[i]
			j.mu.Lock()
			ps.State = j.state
			ps.Forked = j.forked
			ps.Cached = j.cached
			j.mu.Unlock()
		}
		st.PointJobs = append(st.PointJobs, ps)
	}
	if cached {
		st.Resolved, st.Done = len(sw.points), len(sw.points)
	}
	return st
}

// Sweeps snapshots every known sweep's status.
func (s *Server) Sweeps() []SweepStatus {
	s.mu.Lock()
	sweeps := make([]*Sweep, 0, len(s.sweeps))
	for _, sw := range s.sweeps {
		sweeps = append(sweeps, sw)
	}
	s.mu.Unlock()
	out := make([]SweepStatus, len(sweeps))
	for i, sw := range sweeps {
		out[i] = s.SweepStatus(sw)
	}
	return out
}
