package sim

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"nucasim/internal/atomicio"
	"nucasim/internal/core"
	"nucasim/internal/cpu"
	"nucasim/internal/dram"
	"nucasim/internal/hierarchy"
	"nucasim/internal/invariant"
	"nucasim/internal/llc"
	"nucasim/internal/telemetry"
	"nucasim/internal/workload"
)

// ErrInterrupted is returned by RunContext when its context ends before
// the measurement window completes. If Config.CheckpointPath was set, a
// checkpoint holding the interrupted state has been written and the run
// can be continued with ReadCheckpoint + ResumeFromCheckpoint.
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
// generator and branch predictor), the upper cache hierarchy, the L3
// organization (the adaptive LLC with its shadow tags and partition
// limits in LLC, any other scheme in Baseline), the memory channel, and
// the telemetry epoch ring. Gob-encoded; written atomically.
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
	// LLC holds the adaptive scheme's state and Baseline every other
	// scheme's; the other one stays zero. The adaptive field keeps its
	// name so that checkpoints written before Baseline existed decode.
	LLC      core.State
	Baseline llc.State
	Telem    telemetry.State
}

// baselineOrg is the snapshot side of every organization but the
// adaptive one (llc.State).
type baselineOrg interface {
	Snapshot() llc.State
	Restore(llc.State) error
}

// errNoOrigin refuses work that needs a measurement origin.
var errNoOrigin = errors.New("sim: the machine has no measurement origin: it was neither warmed (NewWarmedMachine) nor restored (Restore), or its last Restore failed")

// Capture snapshots the machine with its measurement origin: the
// configuration, mix and warmup hash, the cycle, the measured cycles
// and the counter baseline, and every component's state. It is valid
// at any point once the machine has an origin. At the warmup/measure
// boundary it is the warmup checkpoint, with zero measured cycles;
// after a run has measured W cycles it continues that run past W.
// Capturing does not move the machine. It refuses a machine with no
// origin.
func (m *Machine) Capture() (*Checkpoint, error) {
	if m.origin == nil {
		return nil, errNoOrigin
	}
	cfg := m.Cfg
	tcfg := cfg.Telemetry
	cfg.Telemetry = nil
	var adaptive core.State
	var baseline llc.State
	if m.Adaptive != nil {
		// Publish the epoch-deferred counter deltas so the registry state
		// below carries current values (Restore re-baselines the flush).
		m.Adaptive.FlushTelemetry()
		adaptive = m.Adaptive.Snapshot()
	} else {
		baseline = m.Org.(baselineOrg).Snapshot()
	}
	// The hash cannot fail here: the machine was built from this very
	// (cfg, mix), so CanonicalSpec already validated it.
	m.buildHash, _ = WarmupHash(cfg, m.mix)
	base := m.origin.base
	ck := &Checkpoint{
		Version:      checkpointVersion,
		Cfg:          cfg,
		Mix:          slices.Clone(m.mix),
		WarmupHash:   m.buildHash,
		Now:          m.now,
		Measured:     m.now - m.origin.cycle,
		BeforeInstr:  slices.Clone(base.instr),
		BeforeAccess: slices.Clone(base.access),
		BeforeMiss:   slices.Clone(base.miss),
		Hier:         m.Hierarchy.Snapshot(),
		Mem:          m.Memory.Snapshot(),
		LLC:          adaptive,
		Baseline:     baseline,
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
	return ck, nil
}

// Restore loads ck into the machine in place of the run it holds, so
// that MeasureWindows continues the run ck captured. The machine must
// have been built for ck's warmup: any machine of the same scheme,
// cores, mix and warmup fields, whether it ran the warmup or was only
// built (NewMachine), and whatever it ran since.
//
// Every check runs before anything is restored: ck is validated, its
// WarmupHash is re-derived from ck.Cfg and ck.Mix and held against both
// its stamp (only measurement-window fields may change across a fork)
// and the machine's build, naming both hashes on a mismatch, and the
// configuration is validated. Its CheckpointPath stays live, so a
// restored run keeps checkpointing.
// Each component's Restore then vets its own state.
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
// reconstruction restarts from the restored cache, so
// Result.ReplayEpochsVerified counts the epochs after the checkpoint.
//
// A successful Restore sets the machine's origin to ck's (Now −
// Measured, with ck's counter baseline); the Results' Throughput.Wall
// runs from the end of the restore. A failed one leaves the machine with
// no origin until a later Restore succeeds, which restores all of it.
// Restore never modifies ck.
func (m *Machine) Restore(ck *Checkpoint, attach func(c *telemetry.Config) (enable bool)) error {
	m.origin = nil
	cfg, err := ck.config()
	if err != nil {
		return err
	}
	if m.buildHash == "" {
		if m.buildHash, err = WarmupHash(m.Cfg, m.mix); err != nil {
			return fmt.Errorf("sim: this machine's build has no warmup hash: %w", err)
		}
	}
	if ck.WarmupHash != m.buildHash {
		return fmt.Errorf("sim: checkpoint warmup hash %.12s does not match this machine's build (warmup hash %.12s): a machine restores only checkpoints of its own scheme, cores, mix and warmup", ck.WarmupHash, m.buildHash)
	}
	tcfg := telemetry.Config{}
	if ck.HasTelemetry {
		tcfg = telemetry.Config{
			Run:           ck.TelemetryRun,
			EpochCapacity: ck.TelemetryEpochCapacity,
			SampleEvery:   ck.TelemetrySampleEvery,
			FullTrace:     ck.TelemetryFullTrace,
		}
	}
	if attach != nil && attach(&tcfg) || ck.HasTelemetry {
		cfg.Telemetry = &tcfg
	}
	m.wireRun(cfg)
	if err := m.restoreState(ck); err != nil {
		return fmt.Errorf("sim: restoring checkpoint: %w", err)
	}
	m.origin = &origin{
		cycle: ck.Now - ck.Measured,
		base: snapshot{
			instr:  slices.Clone(ck.BeforeInstr),
			access: slices.Clone(ck.BeforeAccess),
			miss:   slices.Clone(ck.BeforeMiss),
		},
		wall: time.Now(),
	}
	return nil
}

// config checks ck and returns the configuration its run continues
// under: ck.Cfg with its defaults, validated, with ck's stamped warmup
// hash re-derived from ck.Cfg and ck.Mix.
func (ck *Checkpoint) config() (Config, error) {
	if err := ck.validate(); err != nil {
		return Config{}, err
	}
	cfg := ck.Cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	warmHash, err := WarmupHash(ck.Cfg, ck.Mix)
	if err != nil {
		return Config{}, err
	}
	if warmHash != ck.WarmupHash {
		return Config{}, fmt.Errorf("sim: checkpoint warmup hash %.12s does not match configuration (%.12s): only measurement-window fields may change across a fork", ck.WarmupHash, warmHash)
	}
	return cfg, nil
}

// restoreState loads every component's state from ck, restarts the
// replay verifier's reconstruction from the restored cache, and sets
// the clock to ck's.
func (m *Machine) restoreState(ck *Checkpoint) error {
	for i, c := range m.Cores {
		if err := c.Restore(ck.Cores[i]); err != nil {
			return fmt.Errorf("core %d: %w", i, err)
		}
	}
	if err := m.Hierarchy.Restore(ck.Hier); err != nil {
		return err
	}
	m.Memory.Restore(ck.Mem)
	var err error
	if m.Adaptive != nil {
		err = m.Adaptive.Restore(ck.LLC)
	} else {
		err = m.Org.(baselineOrg).Restore(ck.Baseline)
	}
	if err != nil {
		return err
	}
	if err := m.Telemetry.Restore(ck.Telem); err != nil {
		return err
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
	if ck.WarmupHash == "" {
		return errors.New("sim: checkpoint has no WarmupHash: nothing ties its state to the configuration that produced it")
	}
	if ck.Measured > ck.Now {
		return fmt.Errorf("sim: checkpoint holds Measured = %d measured cycles at Now = %d: its measurement origin would precede cycle 0", ck.Measured, ck.Now)
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
// plain Run would. It is NewWarmedMachine and MeasureWindows of the one
// window cfg.MeasureCycles.
func RunContext(ctx context.Context, cfg Config, mix []workload.AppParams) (Result, error) {
	m, err := NewWarmedMachine(ctx, cfg, mix)
	if err != nil {
		return Result{}, err
	}
	rs, err := m.MeasureWindows(ctx, []uint64{m.Cfg.MeasureCycles})
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// NewWarmedMachine validates cfg, builds its machine (which arms the
// invariant checker) and runs only its warmup phase, exactly as
// RunContext would. It returns the machine at its warmup/measure
// boundary, which is its measurement origin; the run's wall clock runs
// from the start of the warmup. From there the machine measures on
// (MeasureWindows), which is the cold run, or captures the boundary
// (Capture) for runs that restore it. The run's root span stays open
// until the machine measures or a Restore replaces the run.
func NewWarmedMachine(ctx context.Context, cfg Config, mix []workload.AppParams) (*Machine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(mix) != cfg.Cores {
		return nil, fmt.Errorf("sim: mix has %d apps for %d cores", len(mix), cfg.Cores)
	}
	m := NewMachine(cfg, mix)
	start := time.Now()
	err := m.warmup(ctx)
	if err == nil {
		err = m.guard.err
	}
	if err != nil {
		m.endRun()
		return nil, err
	}
	m.origin = &origin{cycle: m.now, base: m.snap(), wall: start}
	return m, nil
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
// counters and epoch series; only wall-clock throughput differs, which
// runs from the end of the restore. It builds a machine from the
// checkpoint's configuration and mix, restores ck on it (Restore
// describes the checks and attach) and measures its window,
// ck.Cfg.MeasureCycles.
//
// It is also the fork primitive behind sweep warmup sharing: capture
// one checkpoint at the warmup/measure boundary (WarmupCheckpoint) and
// resume a struct copy of it per sweep point, its Cfg carrying that
// point's MeasureCycles (and, for crash safety, CheckpointPath).
// ResumeFromCheckpoint never modifies ck.
func ResumeFromCheckpoint(ctx context.Context, ck *Checkpoint, attach func(c *telemetry.Config) (enable bool)) (Result, error) {
	cfg, err := ck.config()
	if err != nil {
		return Result{}, err
	}
	m := NewMachine(cfg, ck.Mix)
	m.buildHash = ck.WarmupHash
	if err := m.Restore(ck, attach); err != nil {
		return Result{}, err
	}
	rs, err := m.MeasureWindows(ctx, []uint64{cfg.MeasureCycles})
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// WarmupCheckpoint runs only the warmup phase of cfg — the functional
// fast-forward and the timed warmup window, exactly as RunContext would —
// and captures the machine at the warmup/measure boundary (zero measured
// cycles, the measurement baseline just snapped): NewWarmedMachine, then
// Capture. Resuming the returned checkpoint is bit-identical to running
// the same configuration cold, which the fork-equivalence suite proves;
// the point is that one warmup can seed arbitrarily many measurement
// windows (ResumeFromCheckpoint on copies with different MeasureCycles),
// so a sweep whose points share warmup-relevant configuration pays for
// warmup exactly once.
func WarmupCheckpoint(ctx context.Context, cfg Config, mix []workload.AppParams) (*Checkpoint, error) {
	m, err := NewWarmedMachine(ctx, cfg, mix)
	if err != nil {
		return nil, err
	}
	defer m.endRun()
	return m.Capture()
}

// MeasureWindows measures the machine on from its origin through each
// of windows and returns one Result per window: the Result of the run
// the origin belongs to with that window as its MeasureCycles, wall
// clock aside. On a warmed machine (NewWarmedMachine) that is the cold
// run, harvested at each window, with nothing captured or restored; on
// a restored one (Restore) it is the run the checkpoint continues.
// Windows may repeat but not decrease, none may be empty, and none may
// be shorter than the cycles the machine has already measured: a
// machine that measured to W can measure on to a longer window. The
// machine's configuration then measures the longest window (progress
// reports and CheckpointPath checkpoints carry it), and an ended ctx
// interrupts the run as RunContext's does.
//
// Each window ends with the end-of-run invariant sweep
// (Config.CheckInvariants) before it is harvested, and every Result is a
// fresh copy that shares no slice or map with the machine or another
// Result. Throughput.Wall of each window runs from the origin's wall
// clock (the start of the warmup, or the end of the restore) to that
// window's harvest. The run's root span ends when MeasureWindows
// returns. It refuses a machine with no origin. On an error the Results
// of the windows harvested before it are returned with it.
func (m *Machine) MeasureWindows(ctx context.Context, windows []uint64) ([]Result, error) {
	if m.origin == nil {
		return nil, errNoOrigin
	}
	if len(windows) == 0 {
		return nil, errors.New("sim: no measurement window")
	}
	measured := m.now - m.origin.cycle
	for i, w := range windows {
		switch {
		case w == 0:
			return nil, fmt.Errorf("sim: measurement window %d is empty", i)
		case i > 0 && w < windows[i-1]:
			return nil, fmt.Errorf("sim: measurement window %d (%d cycles) is shorter than the window before it (%d): windows may not decrease", i, w, windows[i-1])
		case w < measured:
			return nil, fmt.Errorf("sim: measurement window %d (%d cycles) is shorter than the %d measured cycles the machine already holds", i, w, measured)
		}
	}
	cfg := m.Cfg
	cfg.MeasureCycles = windows[len(windows)-1]
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m.Cfg = cfg
	var rs []Result
	var err error
	telemetry.WithPhase(ctx, "measure", func(ctx context.Context) {
		rs, err = m.measureLoop(ctx, measured, windows)
	})
	m.endRun()
	return rs, err
}

// measureLoop runs the measurement from measured cycles already done
// to each of windows in turn (non-decreasing, the last one
// m.Cfg.MeasureCycles) and harvests a Result at each, checkpointing on
// the configured cadence and on interruption, and recording one
// wall-clock span per chunk and per checkpoint write. On an error it
// returns the Results harvested so far with it.
func (m *Machine) measureLoop(ctx context.Context, measured uint64, windows []uint64) ([]Result, error) {
	cfg, guard := m.Cfg, m.guard
	phase := m.startSpan("sim.measure")
	defer phase.End()
	nextCkpt := uint64(0)
	if cfg.CheckpointPath != "" {
		nextCkpt = measured + cfg.CheckpointEvery
	}
	writeCkpt := func() error {
		sp := m.startSpan("sim.checkpoint_write")
		ck, err := m.Capture()
		if err == nil {
			err = WriteCheckpoint(cfg.CheckpointPath, ck)
		}
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
			chunk := min(measureChunk, window-measured)
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
		out = append(out, m.results(window))
	}
	return out, nil
}
