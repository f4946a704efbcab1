package sim

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"nucasim/internal/atomicio"
	"nucasim/internal/core"
	"nucasim/internal/cpu"
	"nucasim/internal/dram"
	"nucasim/internal/hierarchy"
	"nucasim/internal/invariant"
	"nucasim/internal/telemetry"
	"nucasim/internal/workload"
)

// ErrInterrupted is returned by RunContext when the run stops before the
// measurement window completes — context cancellation or Config.StopAfter.
// If Config.CheckpointPath was set, a checkpoint holding the interrupted
// state has been written and the run can be continued with
// ReadCheckpoint + ResumeFromCheckpoint.
var ErrInterrupted = errors.New("sim: run interrupted")

const (
	// checkpointVersion changes whenever Checkpoint's gob layout does.
	checkpointVersion = 2

	// warmSegment is the functional-warmup granularity between context
	// checks.
	warmSegment = 200_000

	// measureChunk is the timed-cycle granularity between context checks.
	// Machine.Run catches every core up to the end of its call and its
	// result equals a cycle-by-cycle loop's, so chunk boundaries cannot
	// change simulation state; they only bound cancellation latency.
	measureChunk = 4096
)

// Segmented warmup replays the exact instruction interleaving of a single
// WarmFunctional call only if every segment is whole chunks: this fails
// to compile (constant overflows uint) otherwise.
const _ uint = -(warmSegment % warmChunk)

// Checkpoint is the complete serialized state of an interrupted run:
// configuration, workload mix, every core (including its instruction
// generator and branch predictor), the upper cache hierarchy, the
// adaptive LLC with its shadow tags and partition limits, the memory
// channel, and the telemetry epoch ring. Gob-encoded; written atomically.
//
// Config.Telemetry holds an io.Writer and cannot be serialized, so its
// parameters travel in the Telemetry* fields and the pointer is stripped.
type Checkpoint struct {
	Version int
	Cfg     Config
	Mix     []workload.AppParams

	// WarmupHash is sim.WarmupHash(Cfg, Mix) stamped at capture. Resuming
	// checks it against the resume-time configuration, so a checkpoint can
	// only ever continue a run whose warmup-relevant fields match the ones
	// that produced the state — the invariant behind sweep warmup forking,
	// where one warmup checkpoint seeds many measurement windows that
	// differ only in MeasureCycles.
	WarmupHash string

	HasTelemetry           bool
	TelemetryRun           string
	TelemetryEpochCapacity int
	TelemetrySampleEvery   map[telemetry.Kind]uint64
	TelemetryFullTrace     bool

	Now      uint64 // simulation cycle at capture
	Measured uint64 // measured cycles completed before capture

	// The measurement window's baseline counters (Machine.snap at the
	// warmup/measure boundary), so the resumed run computes deltas
	// against the same origin.
	BeforeInstr  []uint64
	BeforeAccess []uint64
	BeforeMiss   []uint64

	Cores []cpu.State
	Hier  hierarchy.State
	Mem   dram.State
	LLC   core.State
	Telem telemetry.State
}

// checkpointsCaptured counts checkpoint captures across the process:
// warmup boundaries, periodic and interrupt checkpoints alike.
var checkpointsCaptured atomic.Uint64

// CheckpointsCaptured returns the process-wide count of checkpoints
// captured so far, so a caller can tell whether a run snapshotted a
// machine (a fork group whose members all chain captures none).
func CheckpointsCaptured() uint64 { return checkpointsCaptured.Load() }

// captureCheckpoint snapshots the machine mid-measurement.
func (m *Machine) captureCheckpoint(before snapshot, measured uint64, mix []workload.AppParams) *Checkpoint {
	checkpointsCaptured.Add(1)
	cfg := m.Cfg
	tcfg := cfg.Telemetry
	cfg.Telemetry = nil
	if m.Adaptive != nil {
		// Publish the epoch-deferred counter deltas so the registry state
		// below carries current values (Restore re-baselines the flush).
		m.Adaptive.FlushTelemetry()
	}
	// The hash cannot fail here: the machine was built from this very
	// (cfg, mix), so CanonicalSpec already validated it.
	warmHash, _ := WarmupHash(cfg, mix)
	ck := &Checkpoint{
		Version:      checkpointVersion,
		Cfg:          cfg,
		Mix:          append([]workload.AppParams(nil), mix...),
		WarmupHash:   warmHash,
		Now:          m.now,
		Measured:     measured,
		BeforeInstr:  append([]uint64(nil), before.instr...),
		BeforeAccess: append([]uint64(nil), before.access...),
		BeforeMiss:   append([]uint64(nil), before.miss...),
		Hier:         m.Hierarchy.Snapshot(),
		Mem:          m.Memory.Snapshot(),
		Telem:        m.Telemetry.Snapshot(),
	}
	if tcfg != nil {
		ck.HasTelemetry = true
		ck.TelemetryRun = tcfg.Run
		ck.TelemetryEpochCapacity = tcfg.EpochCapacity
		ck.TelemetrySampleEvery = tcfg.SampleEvery
		ck.TelemetryFullTrace = tcfg.FullTrace
	}
	for _, c := range m.Cores {
		ck.Cores = append(ck.Cores, c.Snapshot())
	}
	if m.Adaptive != nil {
		ck.LLC = m.Adaptive.Snapshot()
	}
	return ck
}

// restoreCheckpoint loads a checkpoint into a machine built from a
// configuration and mix with the checkpoint's warmup hash, and restarts
// the replay verifier's reconstruction from the restored cache.
func (m *Machine) restoreCheckpoint(ck *Checkpoint) error {
	for i, c := range m.Cores {
		if err := c.Restore(ck.Cores[i]); err != nil {
			return fmt.Errorf("core %d: %w", i, err)
		}
	}
	if err := m.Hierarchy.Restore(ck.Hier); err != nil {
		return err
	}
	m.Memory.Restore(ck.Mem)
	if m.Adaptive != nil {
		if err := m.Adaptive.Restore(ck.LLC); err != nil {
			return err
		}
	}
	if m.Telemetry != nil {
		if err := m.Telemetry.Restore(ck.Telem); err != nil {
			return err
		}
	}
	if m.Verifier != nil {
		m.Verifier.Reset()
	}
	m.now = ck.Now
	return nil
}

// WriteCheckpoint gob-encodes ck to path atomically: the bytes land in a
// temp file in the same directory and are renamed over path only after a
// successful sync, so a crash mid-write can never leave a truncated
// checkpoint under the real name.
func WriteCheckpoint(path string, ck *Checkpoint) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(ck)
	})
}

// Encode renders the checkpoint as the same gob bytes WriteCheckpoint
// persists, without touching disk.
func (ck *Checkpoint) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeCheckpoint parses and validates checkpoint bytes produced by
// Encode (or read back from a WriteCheckpoint file).
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	ck := new(Checkpoint)
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(ck); err != nil {
		// Another format version need not decode at all; name its version
		// when the stream still carries one.
		var v struct{ Version int }
		if gob.NewDecoder(bytes.NewReader(data)).Decode(&v) == nil && v.Version != checkpointVersion {
			return nil, versionError(v.Version)
		}
		return nil, fmt.Errorf("sim: corrupt checkpoint: %w", err)
	}
	if err := ck.validate(); err != nil {
		return nil, err
	}
	return ck, nil
}

func versionError(v int) error {
	return fmt.Errorf("sim: checkpoint has format version %d, this build reads version %d", v, checkpointVersion)
}

func (ck *Checkpoint) validate() error {
	if ck.Version != checkpointVersion {
		return versionError(ck.Version)
	}
	cores := ck.Cfg.withDefaults().Cores
	if len(ck.Mix) != cores {
		return fmt.Errorf("sim: checkpoint names %d apps for %d cores", len(ck.Mix), cores)
	}
	if len(ck.Cores) != cores || len(ck.BeforeInstr) != cores || len(ck.BeforeAccess) != cores || len(ck.BeforeMiss) != cores {
		return fmt.Errorf("sim: checkpoint holds %d core states and a measurement baseline of %d/%d/%d counters for %d cores",
			len(ck.Cores), len(ck.BeforeInstr), len(ck.BeforeAccess), len(ck.BeforeMiss), cores)
	}
	return nil
}

// ReadCheckpoint loads and validates a checkpoint file.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ck, err := DecodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint %s: %w", path, err)
	}
	return ck, nil
}

// invariantGuard carries the first structural-invariant violation seen by
// the per-epoch hook.
type invariantGuard struct {
	err error
}

// armInvariantChecks wires invariant.Check into the adaptive scheme's
// repartition hook (composing with any hook wireRun installed before it)
// when Config.CheckInvariants is set.
func (m *Machine) armInvariantChecks() *invariantGuard {
	g := &invariantGuard{}
	if !m.Cfg.CheckInvariants || m.Adaptive == nil {
		return g
	}
	a := m.Adaptive
	prev := a.OnRepartition
	a.OnRepartition = func(limits []int, transferred bool) {
		if prev != nil {
			prev(limits, transferred)
		}
		if g.err == nil {
			sp := m.startSpan("sim.invariant_check")
			if err := invariant.Check(a); err != nil {
				g.err = fmt.Errorf("sim: invariant violation at evaluation %d: %w", a.Evaluations, err)
			}
			sp.End()
		}
	}
	return g
}

// final runs the end-of-run invariant sweep.
func (g *invariantGuard) final(m *Machine) error {
	if g.err != nil {
		return g.err
	}
	if m.Cfg.CheckInvariants && m.Adaptive != nil {
		sp := m.startSpan("sim.invariant_check")
		err := invariant.Check(m.Adaptive)
		sp.End()
		if err != nil {
			return fmt.Errorf("sim: invariant violation at end of run: %w", err)
		}
	}
	return nil
}

// RunContext is Run with validation, cancellation and checkpointing: the
// configuration is validated up front, the warmup and measurement loops
// honor ctx, Config.CheckInvariants arms the structural checker, and
// Config.CheckpointPath makes the measurement window crash-safe. An
// interrupted run returns ErrInterrupted (checkpoint written first when a
// path is configured); a completed run returns the same Result the
// plain Run would.
func RunContext(ctx context.Context, cfg Config, mix []workload.AppParams) (Result, error) {
	m, start, err := warmedMachine(ctx, cfg.withDefaults(), mix)
	if err != nil {
		return Result{}, err
	}
	rs, err := m.measure(ctx, mix, m.snap(), 0, start, []uint64{m.Cfg.MeasureCycles})
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// warmedMachine validates cfg, builds its machine (which arms the
// invariant checker), and runs the warmup — everything RunContext and
// WarmupMachine share before the measurement window. start is when the
// warmup began, the origin of the run's wall-clock throughput.
func warmedMachine(ctx context.Context, cfg Config, mix []workload.AppParams) (m *Machine, start time.Time, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, start, err
	}
	if len(mix) != cfg.Cores {
		return nil, start, fmt.Errorf("sim: mix has %d apps for %d cores", len(mix), cfg.Cores)
	}
	m = NewMachine(cfg, mix)
	start = time.Now()
	if err = m.warmup(ctx); err == nil {
		err = m.guard.err
	}
	if err != nil {
		m.spanRoot.End()
		return nil, start, err
	}
	return m, start, nil
}

// warmup runs the functional fast-forward and the timed warmup window in
// cancellable segments, under the pprof label phase=warmup and with one
// wall-clock span per phase and per segment. Warmup carries no
// checkpoint: it is cheap to redo and the baseline snapshot that anchors
// Result deltas does not exist yet.
func (m *Machine) warmup(ctx context.Context) (err error) {
	cfg := m.Cfg
	telemetry.WithPhase(ctx, "warmup", func(ctx context.Context) {
		err = m.warmPhase(ctx, "sim.warmup_functional", "sim.warmup_segment", "warmup-functional",
			cfg.WarmupInstructions, warmSegment, m.warmFunctionalSegment)
		if err == nil {
			m.Memory.Reset()
			err = m.warmPhase(ctx, "sim.warmup_cycles", "sim.warmup_chunk", "warmup-cycles",
				cfg.WarmupCycles, measureChunk, m.Run)
		}
	})
	return err
}

// warmPhase runs one warmup phase of total units in steps of at most
// step, under a span named name with one span named stepName per step,
// reporting progress as phase after each step.
func (m *Machine) warmPhase(ctx context.Context, name, stepName, phase string, total, step uint64, run func(n uint64)) error {
	sp := m.startSpan(name)
	for done := uint64(0); done < total; {
		if ctx.Err() != nil {
			sp.End()
			return fmt.Errorf("%w during warmup (no checkpoint)", ErrInterrupted)
		}
		n := min(step, total-done)
		stepSpan := m.startSpan(stepName)
		run(n)
		done += n
		stepSpan.SetDetail(n)
		stepSpan.End()
		m.Telemetry.ReportProgress(telemetry.Progress{Phase: phase, Done: done, Total: total})
	}
	sp.SetDetail(total)
	sp.End()
	return nil
}

// ResumeFromCheckpoint continues a checkpoint (ReadCheckpoint for a
// file, DecodeCheckpoint for bytes) to completion and returns the Result
// the uninterrupted run would have produced: bit-identical limits,
// counters and epoch series; only wall-clock throughput differs. It
// builds a machine from the checkpoint's configuration and mix and
// resumes the checkpoint on it; Machine.Resume describes the run.
//
// It is also the fork primitive behind sweep warmup sharing: capture
// one checkpoint at the warmup/measure boundary (WarmupCheckpoint) and
// resume a struct copy of it per sweep point, its Cfg carrying that
// point's MeasureCycles (and, for crash safety, CheckpointPath).
// ResumeFromCheckpoint never modifies ck.
func ResumeFromCheckpoint(ctx context.Context, ck *Checkpoint, attach func(c *telemetry.Config) (enable bool)) (Result, error) {
	windows := ck.window()
	cfg, warmHash, err := ck.resumeConfig(windows)
	if err != nil {
		return Result{}, err
	}
	m := NewMachine(cfg, ck.Mix)
	m.buildHash = warmHash
	return first(m.resume(ctx, ck, cfg, windows, attach))
}

// Resume continues a checkpoint on this machine, in place of the run it
// holds, and returns the Result the uninterrupted run would have
// produced, exactly as ResumeFromCheckpoint on a fresh machine would.
// The machine must have been built for the checkpoint's warmup: a
// checkpoint whose warmup hash (which covers the scheme, the core count,
// the mix and every warmup field) differs from the machine's build is
// refused, and the error names both hashes. The machine that ran a
// warmup (WarmupMachine) can so resume each of the windows forked from
// it in turn, with no machine built per window.
//
// Resume runs every check a fresh resume does: the checkpoint is
// validated, its stamped WarmupHash is re-derived from ck.Cfg and a
// mismatch rejected (only measurement-window fields may change across a
// fork), the configuration is validated, Measured may not exceed its
// MeasureCycles, and each component's Restore vets its state. The
// checkpoint's StopAfter is cleared, while its CheckpointPath stays live
// so a resumed run keeps checkpointing.
//
// The run is wired afresh (telemetry, spans, the replay verifier, the
// invariant checker), and hooks an earlier run installed on the
// machine's components are dropped. A checkpoint carries telemetry
// parameters (run label, ring capacity, sampling) but not process-local
// wiring: attach, when non-nil, receives the reconstructed telemetry
// config before the run is wired and may install hooks, spans or a
// fresh TraceWriter (without one, no event trace is emitted); it is
// called even when the run had no telemetry, with a zero-value config
// whose adoption it signals by returning true. Under ReplayVerify the
// reconstruction starts from the restored cache, so
// Result.ReplayEpochsVerified counts the epochs of the resumed part.
//
// Resume never modifies ck. After an error the machine holds no
// consistent run; a later Resume that succeeds restores all of it.
// Resume is ResumeWindows of the one window ck.Cfg.MeasureCycles.
func (m *Machine) Resume(ctx context.Context, ck *Checkpoint, attach func(c *telemetry.Config) (enable bool)) (Result, error) {
	return first(m.ResumeWindows(ctx, ck, ck.window(), attach))
}

// ResumeWindows continues a checkpoint once through several
// measurement windows and returns one Result per window, each the
// Result that Resume of ck with that window as its MeasureCycles would
// produce (Throughput.Wall aside). ck.Cfg.MeasureCycles is ignored:
// windows, which may not decrease and may repeat, replace it. A run of
// W cycles from ck passes through the exact state of every shorter run
// from it (Machine.Run is exact between calls), so the machine restores
// ck once, runs to each window in turn and harvests it there: the cost
// is one restore and the longest window, not one restore and one run
// per window.
//
// Every check Resume runs is run once, against the longest window:
// the checkpoint is validated, its warmup hash re-derived and held
// against both its stamp and the machine's build, the configuration of
// the longest window validated, and each component's Restore vets its
// state. ck.Measured may exceed no window. Each window ends with the
// end-of-run invariant sweep (Config.CheckInvariants) before it is
// harvested, and every Result is a fresh copy that shares no slice or
// map with the machine or another Result. Throughput.Wall of each
// window runs from the end of the restore to that window's harvest: the
// one-window resume's measurement time, plus the harvests of the
// shorter windows before it.
//
// The run is wired once, from ck and attach as Resume describes: one
// telemetry instance, trace and span tree covers every window, progress
// reports count towards the longest window, and CheckpointPath
// checkpoints carry the longest window's MeasureCycles. On an error the
// Results of the windows harvested before it are returned with it.
func (m *Machine) ResumeWindows(ctx context.Context, ck *Checkpoint, windows []uint64, attach func(c *telemetry.Config) (enable bool)) ([]Result, error) {
	cfg, warmHash, err := ck.resumeConfig(windows)
	if err != nil {
		return nil, err
	}
	if m.buildHash == "" {
		if m.buildHash, err = WarmupHash(m.Cfg, m.mix); err != nil {
			return nil, fmt.Errorf("sim: this machine's build has no warmup hash: %w", err)
		}
	}
	if warmHash != m.buildHash {
		return nil, fmt.Errorf("sim: checkpoint warmup hash %.12s does not match this machine's build (warmup hash %.12s): a machine resumes only checkpoints of its own scheme, cores, mix and warmup", warmHash, m.buildHash)
	}
	return m.resume(ctx, ck, cfg, windows, attach)
}

// window is the one measurement window of ck's own configuration.
func (ck *Checkpoint) window() []uint64 {
	return []uint64{ck.Cfg.MeasureWindow()}
}

// first is the one-window case of a resume's results.
func first(rs []Result, err error) (Result, error) {
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// resumeConfig validates ck and windows and returns the configuration
// its run continues under, measuring the longest window, with its
// warmup hash re-derived from ck.Cfg and ck.Mix.
func (ck *Checkpoint) resumeConfig(windows []uint64) (cfg Config, warmHash string, err error) {
	if err := ck.validate(); err != nil {
		return Config{}, "", err
	}
	if cfg, err = windowsConfig(ck.Cfg.withDefaults(), windows); err != nil {
		return Config{}, "", err
	}
	warmHash, err = WarmupHash(ck.Cfg, ck.Mix)
	if err != nil {
		return Config{}, "", err
	}
	if ck.WarmupHash != "" && warmHash != ck.WarmupHash {
		return Config{}, "", fmt.Errorf("sim: checkpoint warmup hash %.12s does not match configuration (%.12s): only measurement-window fields may change across a fork", ck.WarmupHash, warmHash)
	}
	if ck.Measured > windows[0] {
		return Config{}, "", fmt.Errorf("sim: checkpoint holds %d measured cycles, configuration wants only %d", ck.Measured, windows[0])
	}
	return cfg, warmHash, nil
}

// windowsConfig checks a list of measurement windows (at least one,
// none empty, none shorter than the one before it) and returns cfg
// measuring the longest of them, with StopAfter cleared, validated.
func windowsConfig(cfg Config, windows []uint64) (Config, error) {
	if len(windows) == 0 {
		return Config{}, errors.New("sim: no measurement window")
	}
	for i, w := range windows {
		if w == 0 {
			return Config{}, fmt.Errorf("sim: measurement window %d is empty", i)
		}
		if i > 0 && w < windows[i-1] {
			return Config{}, fmt.Errorf("sim: measurement window %d (%d cycles) is shorter than the window before it (%d): windows may not decrease", i, w, windows[i-1])
		}
	}
	cfg.MeasureCycles = windows[len(windows)-1]
	cfg.StopAfter = 0
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// resume is the one resume path of fresh and reused machines: it wires
// the run of cfg (ck's validated configuration, measuring the longest
// of windows), restores every component from ck and measures the rest
// of each window in turn.
func (m *Machine) resume(ctx context.Context, ck *Checkpoint, cfg Config, windows []uint64, attach func(c *telemetry.Config) (enable bool)) ([]Result, error) {
	tcfg := telemetry.Config{}
	if ck.HasTelemetry {
		tcfg = telemetry.Config{
			Run:           ck.TelemetryRun,
			EpochCapacity: ck.TelemetryEpochCapacity,
			SampleEvery:   ck.TelemetrySampleEvery,
			FullTrace:     ck.TelemetryFullTrace,
		}
	}
	enabled := ck.HasTelemetry
	if attach != nil && attach(&tcfg) {
		enabled = true
	}
	if enabled {
		cfg.Telemetry = &tcfg
	}
	m.wireRun(cfg)
	if err := m.restoreCheckpoint(ck); err != nil {
		return nil, fmt.Errorf("sim: restoring checkpoint: %w", err)
	}
	before := snapshot{instr: ck.BeforeInstr, access: ck.BeforeAccess, miss: ck.BeforeMiss}
	return m.measure(ctx, ck.Mix, before, ck.Measured, time.Now(), windows)
}

// WarmupCheckpoint runs only the warmup phase of cfg — the functional
// fast-forward and the timed warmup window, exactly as RunContext would —
// and captures the machine at the warmup/measure boundary (zero measured
// cycles, the measurement baseline just snapped). Resuming the returned
// checkpoint is bit-identical to running the same configuration cold,
// which the fork-equivalence suite proves; the point is that one warmup
// can seed arbitrarily many measurement windows (ResumeFromCheckpoint on
// copies with different MeasureCycles), so a sweep whose points share
// warmup-relevant configuration pays for warmup exactly once. The scheme
// must be Checkpointable.
func WarmupCheckpoint(ctx context.Context, cfg Config, mix []workload.AppParams) (*Checkpoint, error) {
	m, ck, err := WarmupMachine(ctx, cfg, mix)
	if err != nil {
		return nil, err
	}
	m.spanRoot.End()
	return ck, nil
}

// WarmupMachine is WarmupCheckpoint that also returns the warmed
// machine, whose state is exactly the checkpoint's: NewWarmedMachine
// followed by BoundaryCheckpoint. Windows forked from the checkpoint
// can then run one after another on that machine (Machine.Resume), or
// all in one resumed run (Machine.ResumeWindows), none of them building
// a machine of its own.
func WarmupMachine(ctx context.Context, cfg Config, mix []workload.AppParams) (*Machine, *Checkpoint, error) {
	m, err := NewWarmedMachine(ctx, cfg, mix)
	if err != nil {
		return nil, nil, err
	}
	ck, err := m.BoundaryCheckpoint()
	if err != nil {
		return nil, nil, err
	}
	return m, ck, nil
}

// NewWarmedMachine validates cfg, builds its machine and runs only its
// warmup phase, exactly as RunContext would, and returns the machine
// at the warmup/measure boundary with nothing captured. From there it
// either measures on (MeasureWindows), which is the cold run, or
// captures the boundary checkpoint (BoundaryCheckpoint) first, for runs
// that restore it. The run's root span stays open until the machine
// measures, or until a Resume replaces the run.
func NewWarmedMachine(ctx context.Context, cfg Config, mix []workload.AppParams) (*Machine, error) {
	m, _, err := warmedMachine(ctx, cfg.withDefaults(), mix)
	if err != nil {
		return nil, err
	}
	m.atBoundary = true
	return m, nil
}

// errPastBoundary refuses work that needs a machine still at its
// warmup/measure boundary.
var errPastBoundary = errors.New("sim: the machine is not at its warmup/measure boundary: it was not warmed by NewWarmedMachine, or it has run or restored a checkpoint since")

// BoundaryCheckpoint captures the machine at its warmup/measure
// boundary: zero measured cycles, the measurement baseline just
// snapped. Resuming it is bit-identical to measuring the machine on.
// It refuses a machine that is not at that boundary (one that has run a
// cycle or restored a checkpoint since NewWarmedMachine) and a scheme
// that is not Checkpointable. Capturing does not move the machine: it
// may still measure on (MeasureWindows) or resume the checkpoint.
func (m *Machine) BoundaryCheckpoint() (*Checkpoint, error) {
	if !m.Cfg.Scheme.Checkpointable() {
		return nil, fmt.Errorf("sim: warmup checkpointing supports only the adaptive scheme, not %s", m.Cfg.Scheme)
	}
	if !m.atBoundary {
		return nil, errPastBoundary
	}
	ck := m.captureCheckpoint(m.snap(), 0, m.mix)
	m.buildHash = ck.WarmupHash
	return ck, nil
}

// MeasureWindows measures a machine at its warmup/measure boundary
// (NewWarmedMachine) on through each of windows, which may not decrease
// and may repeat, and returns one Result per window: the Result
// RunContext of the machine's configuration with that window as its
// MeasureCycles produces, wall clock aside. It is the cold run,
// harvested at each window through the measurement loop every run
// takes, as ResumeWindows harvests a resumed one; nothing is captured
// or restored. The machine's configuration measures the longest window
// (progress reports and CheckpointPath checkpoints carry it) and its
// StopAfter is cleared, as a resume's is. Throughput.Wall of each window
// runs from the boundary to that window's harvest. A machine that is
// not at its boundary is refused. On an error the Results of the
// windows harvested before it are returned with it.
func (m *Machine) MeasureWindows(ctx context.Context, windows []uint64) ([]Result, error) {
	if !m.atBoundary {
		return nil, errPastBoundary
	}
	cfg, err := windowsConfig(m.Cfg, windows)
	if err != nil {
		return nil, err
	}
	m.Cfg = cfg
	return m.measure(ctx, m.mix, m.snap(), 0, time.Now(), windows)
}

// measure runs the measurement windows under the pprof label
// phase=measure, then ends the run's root span: it is the single exit
// path for both fresh and resumed runs.
func (m *Machine) measure(ctx context.Context, mix []workload.AppParams, before snapshot, measured uint64, start time.Time, windows []uint64) ([]Result, error) {
	var rs []Result
	var err error
	telemetry.WithPhase(ctx, "measure", func(ctx context.Context) {
		rs, err = m.measureLoop(ctx, mix, before, measured, start, windows)
	})
	m.spanRoot.End()
	return rs, err
}

// measureLoop runs the measurement from measured cycles already done
// to each of windows in turn (non-decreasing, the last one
// m.Cfg.MeasureCycles) and harvests a Result at each, checkpointing on
// the configured cadence and on interruption, and recording one
// wall-clock span per chunk and per checkpoint write. On an error it
// returns the Results harvested so far with it.
func (m *Machine) measureLoop(ctx context.Context, mix []workload.AppParams, before snapshot, measured uint64, start time.Time, windows []uint64) ([]Result, error) {
	cfg, guard := m.Cfg, m.guard
	phase := m.startSpan("sim.measure")
	defer phase.End()
	nextCkpt := uint64(0)
	if cfg.CheckpointPath != "" {
		nextCkpt = measured + cfg.CheckpointEvery
	}
	writeCkpt := func() error {
		sp := m.startSpan("sim.checkpoint_write")
		err := WriteCheckpoint(cfg.CheckpointPath, m.captureCheckpoint(before, measured, mix))
		sp.SetDetail(measured)
		sp.End()
		return err
	}
	out := make([]Result, 0, len(windows))
	interrupt := func() ([]Result, error) {
		if cfg.CheckpointPath != "" {
			if err := writeCkpt(); err != nil {
				return out, fmt.Errorf("%w; writing checkpoint failed: %v", ErrInterrupted, err)
			}
		}
		return out, ErrInterrupted
	}
	for _, window := range windows {
		for measured < window {
			if ctx.Err() != nil {
				return interrupt()
			}
			if cfg.StopAfter > 0 && measured >= cfg.StopAfter {
				return interrupt()
			}
			chunk := min(measureChunk, window-measured)
			if cfg.StopAfter > 0 {
				chunk = min(chunk, cfg.StopAfter-measured)
			}
			if nextCkpt > measured {
				chunk = min(chunk, nextCkpt-measured)
			}
			chunkSpan := m.startSpan("sim.measure_chunk")
			m.Run(chunk)
			measured += chunk
			chunkSpan.SetDetail(chunk)
			chunkSpan.End()
			m.Telemetry.ReportProgress(telemetry.Progress{Phase: "measure", Done: measured, Total: cfg.MeasureCycles})
			if guard.err != nil {
				return out, guard.err
			}
			if nextCkpt > 0 && measured >= nextCkpt && measured < cfg.MeasureCycles {
				if err := writeCkpt(); err != nil {
					return out, fmt.Errorf("sim: periodic checkpoint: %w", err)
				}
				nextCkpt = measured + cfg.CheckpointEvery
			}
		}
		if err := guard.final(m); err != nil {
			return out, err
		}
		out = append(out, m.results(mix, before, window, time.Since(start)))
	}
	return out, nil
}
