package sim

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
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
	checkpointVersion = 1

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

// captureCheckpoint snapshots the machine mid-measurement.
func (m *Machine) captureCheckpoint(before snapshot, measured uint64, mix []workload.AppParams) *Checkpoint {
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

// restoreCheckpoint loads a checkpoint into a machine freshly built from
// the checkpoint's own configuration and mix.
func (m *Machine) restoreCheckpoint(ck *Checkpoint) error {
	if len(ck.Cores) != len(m.Cores) {
		return fmt.Errorf("sim: checkpoint holds %d cores, machine has %d", len(ck.Cores), len(m.Cores))
	}
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
// persists, without touching disk — the in-memory transport behind
// sweep warmup forking, where one warmup checkpoint is encoded once and
// decoded into a private copy per measurement window.
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
		return nil, fmt.Errorf("sim: corrupt checkpoint: %w", err)
	}
	if err := ck.validate(); err != nil {
		return nil, err
	}
	return ck, nil
}

func (ck *Checkpoint) validate() error {
	if ck.Version != checkpointVersion {
		return fmt.Errorf("sim: checkpoint has version %d, this build reads %d", ck.Version, checkpointVersion)
	}
	if len(ck.Mix) != ck.Cfg.withDefaults().Cores {
		return fmt.Errorf("sim: checkpoint names %d apps for %d cores", len(ck.Mix), ck.Cfg.withDefaults().Cores)
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
// repartition hook (composing with any hook NewMachine installed) when
// Config.CheckInvariants is set.
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
	m, guard, start, err := warmedMachine(ctx, cfg.withDefaults(), mix)
	if err != nil {
		return Result{}, err
	}
	return m.measure(ctx, mix, m.snap(), 0, start, guard)
}

// warmedMachine validates cfg, builds its machine with the invariant
// checker armed, and runs the warmup — everything RunContext and
// WarmupCheckpoint share before the measurement window. start is when
// the warmup began, the origin of the run's wall-clock throughput.
func warmedMachine(ctx context.Context, cfg Config, mix []workload.AppParams) (m *Machine, guard *invariantGuard, start time.Time, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, start, err
	}
	if len(mix) != cfg.Cores {
		return nil, nil, start, fmt.Errorf("sim: mix has %d apps for %d cores", len(mix), cfg.Cores)
	}
	m = NewMachine(cfg, mix)
	guard = m.armInvariantChecks()
	start = time.Now()
	if err = m.warmup(ctx); err == nil {
		err = guard.err
	}
	if err != nil {
		m.spanRoot.End()
		return nil, nil, start, err
	}
	return m, guard, start, nil
}

// warmup runs the functional fast-forward and the timed warmup window in
// cancellable segments, under the pprof label phase=warmup and with one
// wall-clock span per phase and per segment. Warmup carries no
// checkpoint: it is cheap to redo and the baseline snapshot that anchors
// Result deltas does not exist yet.
func (m *Machine) warmup(ctx context.Context) (err error) {
	cfg := m.Cfg
	telemetry.WithPhase(ctx, "warmup", func(ctx context.Context) {
		phase := m.startSpan("sim.warmup_functional")
		for done := uint64(0); done < cfg.WarmupInstructions; {
			if ctx.Err() != nil {
				phase.End()
				err = fmt.Errorf("%w during warmup (no checkpoint)", ErrInterrupted)
				return
			}
			seg := uint64(warmSegment)
			if rem := cfg.WarmupInstructions - done; rem < seg {
				seg = rem
			}
			segSpan := m.startSpan("sim.warmup_segment")
			m.warmFunctionalSegment(seg)
			done += seg
			segSpan.SetDetail(seg)
			segSpan.End()
			m.Telemetry.ReportProgress(telemetry.Progress{Phase: "warmup-functional", Done: done, Total: cfg.WarmupInstructions})
		}
		phase.SetDetail(cfg.WarmupInstructions)
		phase.End()
		m.Memory.Reset()
		phase = m.startSpan("sim.warmup_cycles")
		for done := uint64(0); done < cfg.WarmupCycles; {
			if ctx.Err() != nil {
				phase.End()
				err = fmt.Errorf("%w during warmup (no checkpoint)", ErrInterrupted)
				return
			}
			chunk := uint64(measureChunk)
			if rem := cfg.WarmupCycles - done; rem < chunk {
				chunk = rem
			}
			chunkSpan := m.startSpan("sim.warmup_chunk")
			m.Run(chunk)
			done += chunk
			chunkSpan.SetDetail(chunk)
			chunkSpan.End()
			m.Telemetry.ReportProgress(telemetry.Progress{Phase: "warmup-cycles", Done: done, Total: cfg.WarmupCycles})
		}
		phase.SetDetail(cfg.WarmupCycles)
		phase.End()
	})
	return err
}

// ResumeFromCheckpoint continues a checkpoint (ReadCheckpoint for a
// file, DecodeCheckpoint for bytes) to completion and returns the Result
// the uninterrupted run would have produced: bit-identical limits,
// counters and epoch series; only wall-clock throughput differs. The
// checkpoint's StopAfter is cleared, while its CheckpointPath stays live
// so a resumed run keeps checkpointing. A checkpoint carries telemetry
// parameters (run label, ring capacity, sampling) but not process-local
// wiring: attach, when non-nil, receives the reconstructed telemetry
// config before the machine is built and may install hooks, spans or a
// fresh TraceWriter (without one, no event trace is emitted); it is
// called even when the run had no telemetry, with a zero-value config
// whose adoption it signals by returning true.
//
// It is also the fork primitive behind sweep warmup sharing: capture
// one checkpoint at the warmup/measure boundary (WarmupCheckpoint),
// decode a private copy per sweep point, override its Cfg.MeasureCycles
// (and, for crash safety, its Cfg.CheckpointPath), and resume each copy
// independently. The checkpoint's stamped WarmupHash is re-derived from
// ck.Cfg and a mismatch is rejected, so state is never continued under a
// configuration whose warmup it does not represent. The caller must not
// reuse ck afterwards (restored machines may alias its slices).
func ResumeFromCheckpoint(ctx context.Context, ck *Checkpoint, attach func(c *telemetry.Config) (enable bool)) (Result, error) {
	if err := ck.validate(); err != nil {
		return Result{}, err
	}
	if ck.WarmupHash != "" {
		h, err := WarmupHash(ck.Cfg, ck.Mix)
		if err != nil {
			return Result{}, err
		}
		if h != ck.WarmupHash {
			return Result{}, fmt.Errorf("sim: checkpoint warmup hash %.12s does not match configuration (%.12s): only measurement-window fields may change across a fork", ck.WarmupHash, h)
		}
	}
	cfg := ck.Cfg.withDefaults()
	cfg.StopAfter = 0
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if ck.Measured > cfg.MeasureCycles {
		return Result{}, fmt.Errorf("sim: checkpoint holds %d measured cycles, configuration wants only %d", ck.Measured, cfg.MeasureCycles)
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
	enabled := ck.HasTelemetry
	if attach != nil && attach(&tcfg) {
		enabled = true
	}
	if enabled {
		cfg.Telemetry = &tcfg
	}
	m := NewMachine(cfg, ck.Mix)
	guard := m.armInvariantChecks()
	if err := m.restoreCheckpoint(ck); err != nil {
		return Result{}, fmt.Errorf("sim: restoring checkpoint: %w", err)
	}
	before := snapshot{instr: ck.BeforeInstr, access: ck.BeforeAccess, miss: ck.BeforeMiss}
	return m.measure(ctx, ck.Mix, before, ck.Measured, time.Now(), guard)
}

// WarmupCheckpoint runs only the warmup phase of cfg — the functional
// fast-forward and the timed warmup window, exactly as RunContext would —
// and captures the machine at the warmup/measure boundary (zero measured
// cycles, the measurement baseline just snapped). Resuming the returned
// checkpoint is bit-identical to running the same configuration cold,
// which the fork-equivalence suite proves; the point is that one warmup
// can seed arbitrarily many measurement windows (ResumeFromCheckpoint on
// decoded copies with different MeasureCycles), so a sweep whose points share
// warmup-relevant configuration pays for warmup exactly once. Adaptive
// scheme only: the baseline organizations have no snapshot support.
func WarmupCheckpoint(ctx context.Context, cfg Config, mix []workload.AppParams) (*Checkpoint, error) {
	cfg = cfg.withDefaults()
	if cfg.Scheme != SchemeAdaptive {
		return nil, fmt.Errorf("sim: warmup checkpointing supports only the adaptive scheme, not %s", cfg.Scheme)
	}
	m, _, _, err := warmedMachine(ctx, cfg, mix)
	if err != nil {
		return nil, err
	}
	ck := m.captureCheckpoint(m.snap(), 0, mix)
	m.spanRoot.End()
	return ck, nil
}

// measure runs the measurement window under the pprof label
// phase=measure, then ends the run's root span: it is the single exit
// path for both fresh and resumed runs.
func (m *Machine) measure(ctx context.Context, mix []workload.AppParams, before snapshot, measured uint64, start time.Time, guard *invariantGuard) (Result, error) {
	var res Result
	var err error
	telemetry.WithPhase(ctx, "measure", func(ctx context.Context) {
		res, err = m.measureLoop(ctx, mix, before, measured, start, guard)
	})
	m.spanRoot.End()
	return res, err
}

// measureLoop runs the measurement window from measured cycles already
// done, checkpointing on the configured cadence and on interruption, and
// recording one wall-clock span per chunk and per checkpoint write.
func (m *Machine) measureLoop(ctx context.Context, mix []workload.AppParams, before snapshot, measured uint64, start time.Time, guard *invariantGuard) (Result, error) {
	cfg := m.Cfg
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
	interrupt := func() (Result, error) {
		if cfg.CheckpointPath != "" {
			if err := writeCkpt(); err != nil {
				return Result{}, fmt.Errorf("%w; writing checkpoint failed: %v", ErrInterrupted, err)
			}
		}
		return Result{}, ErrInterrupted
	}
	for measured < cfg.MeasureCycles {
		if ctx.Err() != nil {
			return interrupt()
		}
		if cfg.StopAfter > 0 && measured >= cfg.StopAfter {
			return interrupt()
		}
		chunk := uint64(measureChunk)
		if rem := cfg.MeasureCycles - measured; rem < chunk {
			chunk = rem
		}
		if cfg.StopAfter > 0 && measured < cfg.StopAfter {
			if rem := cfg.StopAfter - measured; rem < chunk {
				chunk = rem
			}
		}
		if nextCkpt > measured {
			if rem := nextCkpt - measured; rem < chunk {
				chunk = rem
			}
		}
		chunkSpan := m.startSpan("sim.measure_chunk")
		m.Run(chunk)
		measured += chunk
		chunkSpan.SetDetail(chunk)
		chunkSpan.End()
		m.Telemetry.ReportProgress(telemetry.Progress{Phase: "measure", Done: measured, Total: cfg.MeasureCycles})
		if guard.err != nil {
			return Result{}, guard.err
		}
		if nextCkpt > 0 && measured >= nextCkpt && measured < cfg.MeasureCycles {
			if err := writeCkpt(); err != nil {
				return Result{}, fmt.Errorf("sim: periodic checkpoint: %w", err)
			}
			nextCkpt = measured + cfg.CheckpointEvery
		}
	}
	if err := guard.final(m); err != nil {
		return Result{}, err
	}
	return m.results(mix, before, time.Since(start)), nil
}
