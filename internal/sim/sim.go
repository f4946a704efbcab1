// Package sim is the top-level chip-multiprocessor simulator: it
// instantiates four out-of-order cores (internal/cpu), their upper
// hierarchies (internal/hierarchy), one of the last-level cache
// organizations the paper compares (private, shared, 4× private,
// cooperative "random replacement", or the adaptive scheme), and the
// shared memory channel, then runs them on one simulated clock. Each core
// jumps to its next event (cpu.Core.NextEvent) and the cores due at a
// cycle step in core order, which is exactly what stepping every core on
// every cycle would do: cores meet only through port calls, which happen
// at events, and nothing below the ports ticks per cycle. Core Stats and
// State are exact between Machine.Run calls, not inside one.
//
// A run consists of a warmup phase (caches and predictors fill; the paper
// fast-forwards 0.5-1.5 G instructions) followed by a measurement window
// (the paper simulates 200 M cycles; the default here is smaller so whole
// figure sweeps finish in minutes — pass the paper's numbers through
// Config for full-length runs). A run is four steps on one Machine:
// NewWarmedMachine builds and warms it, and the warmup/measure boundary
// becomes its measurement origin; Capture snapshots it with its origin;
// Restore loads a snapshot in place of the run it holds; MeasureWindows
// measures on from the origin. RunContext, WarmupCheckpoint and
// ResumeFromCheckpoint are built from those steps.
package sim

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"nucasim/internal/bpred"
	"nucasim/internal/core"
	"nucasim/internal/cpu"
	"nucasim/internal/dram"
	"nucasim/internal/hierarchy"
	"nucasim/internal/llc"
	"nucasim/internal/replay"
	"nucasim/internal/rng"
	"nucasim/internal/stats"
	"nucasim/internal/telemetry"
	"nucasim/internal/workload"
)

// Scheme selects a last-level cache organization.
type Scheme string

// The organizations of the paper's evaluation (§3, §4.7).
const (
	SchemePrivate   Scheme = "private"
	SchemeShared    Scheme = "shared"
	SchemePrivate4x Scheme = "private4x"
	SchemeCoop      Scheme = "coop"
	SchemeAdaptive  Scheme = "adaptive"
)

// schemeDef is everything sim knows about one L3 organization. All of a
// scheme's cache arrays share one geometry: wide arrays hold the whole
// chip's capacity (Cores × L3BytesPerCore), the others one core's.
type schemeDef struct {
	name      Scheme
	wide      bool
	ways      int
	minCores  int
	sharedMem bool // on the shared cache's memory channel (dram.SharedConfig)
	build     func(cfg Config, bytes, ways int, mem *dram.Memory, lat llc.Latencies) llc.Organization
}

// schemeTable is the one place the Table 1 L3 organizations are defined,
// in the order tables present them.
var schemeTable = [...]schemeDef{
	{name: SchemePrivate, ways: 4, minCores: 1,
		build: func(cfg Config, bytes, ways int, mem *dram.Memory, lat llc.Latencies) llc.Organization {
			return llc.NewPrivateSized(cfg.Cores, mem, bytes, ways, lat.LocalHit, string(SchemePrivate))
		}},
	{name: SchemeShared, wide: true, ways: 16, minCores: 1, sharedMem: true,
		build: func(cfg Config, bytes, ways int, mem *dram.Memory, lat llc.Latencies) llc.Organization {
			return llc.NewSharedSized(cfg.Cores, mem, bytes, ways, lat.SharedHit)
		}},
	// The "4 x size private" capacity bound of Figures 7-9: a
	// shared-cache-sized private cache per core. It hits at the shared
	// cache's latency — an array that size cannot be faster than the
	// equally-sized shared cache (CACTI-consistent; the paper plots it
	// only to show which applications want capacity).
	{name: SchemePrivate4x, wide: true, ways: 16, minCores: 1,
		build: func(cfg Config, bytes, ways int, mem *dram.Memory, lat llc.Latencies) llc.Organization {
			return llc.NewPrivateSized(cfg.Cores, mem, bytes, ways, lat.SharedHit, string(SchemePrivate4x))
		}},
	// Coop's neighbour stream comes from a stream of its own at the run
	// seed, so the machine stream that forks the per-core generators is
	// untouched and coop runs the same programs as every other scheme.
	{name: SchemeCoop, ways: 4, minCores: 2,
		build: func(cfg Config, bytes, ways int, mem *dram.Memory, lat llc.Latencies) llc.Organization {
			return llc.NewCooperativeSized(cfg.Cores, mem, bytes, ways, lat, rng.New(cfg.Seed).Fork(0xC0))
		}},
	{name: SchemeAdaptive, ways: 4, minCores: 2,
		build: func(cfg Config, bytes, ways int, mem *dram.Memory, lat llc.Latencies) llc.Organization {
			return core.NewAdaptive(core.Config{
				Cores:             cfg.Cores,
				BytesPerCore:      bytes,
				LocalWays:         ways,
				RepartitionPeriod: cfg.RepartitionPeriod,
				ShadowSampleShift: cfg.ShadowSampleShift,
				Latencies:         lat,
				DisableProtection: cfg.DisableProtection,
				DisableAdaptation: cfg.DisableAdaptation,
			}, mem)
		}},
}

// def returns s's table entry.
func (s Scheme) def() (schemeDef, bool) {
	for _, d := range schemeTable {
		if d.name == s {
			return d, true
		}
	}
	return schemeDef{}, false
}

// arrayBytes is the size of each of the scheme's cache arrays under cfg.
func (d schemeDef) arrayBytes(cfg Config) int {
	if d.wide {
		return cfg.Cores * cfg.L3BytesPerCore
	}
	return cfg.L3BytesPerCore
}

// Schemes lists every organization, in the order tables present them.
func Schemes() []Scheme {
	out := make([]Scheme, len(schemeTable))
	for i, d := range schemeTable {
		out[i] = d.name
	}
	return out
}

// Config parameterizes one simulation run. Zero fields select the Table 1
// baseline with a laptop-scale window.
type Config struct {
	Cores  int    // default 4
	Scheme Scheme // default SchemePrivate
	Seed   uint64 // workload/fast-forward seed; runs are deterministic in it

	// WarmupInstructions is the functional fast-forward per core: caches
	// fill and predictors train without timing, modelling the paper's
	// 0.5-1.5 G-instruction skip (default 1_000_000).
	WarmupInstructions uint64
	WarmupCycles       uint64 // timed warmup after the fast-forward, default 100_000
	MeasureCycles      uint64 // default 1_000_000

	// L3BytesPerCore sizes the private partitions (default 1 MB); the
	// shared organization gets Cores× this. Figure 9 doubles it.
	L3BytesPerCore int

	// Scaled applies the §4.5 future-technology latencies (L2 9→11,
	// L3 14/19→16/24, memory 258/260→330/338).
	Scaled bool

	// ShadowSampleShift passes through to the adaptive scheme (§4.6).
	ShadowSampleShift uint
	// RepartitionPeriod passes through to the adaptive scheme (§2.1).
	RepartitionPeriod int
	// DisableProtection / DisableAdaptation are the adaptive scheme's
	// ablation knobs (see core.Config).
	DisableProtection bool
	DisableAdaptation bool

	// Telemetry, if non-nil, enables the observability subsystem for the
	// run: the adaptive scheme's repartitioning evaluations are sampled
	// into an epoch ring (returned in Result.Epochs) and, when
	// Telemetry.TraceWriter is set, sharing-engine events stream to it as
	// JSON Lines. Nil (the default) adds no work to the hot paths.
	Telemetry *telemetry.Config

	// ReplayVerify (adaptive scheme only) forces a full-fidelity event
	// trace and feeds it, line by line, into an internal/replay state
	// machine that rebuilds per-set LLC state from the events alone. At
	// every repartition epoch the reconstruction is compared against the
	// live cache — every private stack, the shared stack's tags and
	// owners, and the limits, of every set. Results land in
	// Result.ReplayEpochsVerified / ReplayVerifyError. If Telemetry is
	// nil a default instance is created; an existing TraceWriter keeps
	// receiving the (now full) trace via a tee.
	ReplayVerify bool

	// CheckInvariants runs the internal/invariant structural checker over
	// the adaptive scheme's state at every repartitioning evaluation and
	// once more at the end of the run. A violation aborts the run with an
	// error naming the invariant. No-op for the other schemes.
	CheckInvariants bool

	// CheckpointPath, when non-empty, makes RunContext write a crash-safe
	// snapshot of the whole machine (atomically, temp-file+rename) to this
	// path every CheckpointEvery measured cycles and when the run is
	// interrupted, so the run can be continued with ReadCheckpoint +
	// ResumeFromCheckpoint. Every scheme can be checkpointed; the path is
	// incompatible with ReplayVerify (the verifier's trace-fed state
	// machine cannot be checkpointed).
	CheckpointPath string

	// CheckpointEvery is the checkpoint cadence in measured cycles
	// (default 50_000 when CheckpointPath is set).
	CheckpointEvery uint64

	CPU cpu.Config
}

func (c Config) withDefaults() Config {
	if c.Cores == 0 {
		c.Cores = 4
	}
	if c.Scheme == "" {
		c.Scheme = SchemePrivate
	}
	if c.WarmupInstructions == 0 {
		c.WarmupInstructions = 1_000_000
	}
	if c.WarmupCycles == 0 {
		c.WarmupCycles = 100_000
	}
	if c.MeasureCycles == 0 {
		c.MeasureCycles = 1_000_000
	}
	if c.L3BytesPerCore == 0 {
		c.L3BytesPerCore = 1 << 20
	}
	if c.CheckpointPath != "" && c.CheckpointEvery == 0 {
		c.CheckpointEvery = 50_000
	}
	return c
}

// MeasureWindow is the measurement window a run of c measures:
// MeasureCycles, or its default when it is zero.
func (c Config) MeasureWindow() uint64 { return c.withDefaults().MeasureCycles }

// Result is the outcome of one run.
type Result struct {
	Scheme Scheme
	Mix    []string // app name per core

	PerCoreIPC  []float64
	HarmonicIPC float64
	MeanIPC     float64

	// LLCAccessesPerKCycle is the Figure 5 intensity metric per core:
	// last-level accesses (= L2 data misses) per thousand cycles.
	LLCAccessesPerKCycle []float64
	// LLCMissesPerKCycle is the corresponding miss rate per core.
	LLCMissesPerKCycle []float64

	CoreStats []cpu.Stats
	LLCTotal  llc.AccessStats
	Memory    dram.Stats

	// PartitionLimits is the adaptive scheme's final Figure 4(d) state.
	PartitionLimits []int
	// Repartitions counts applied limit transfers (adaptive only).
	Repartitions uint64
	// Evaluations counts repartitioning decisions (adaptive only).
	Evaluations uint64

	// Epochs is the adaptive scheme's per-evaluation time series, present
	// when Config.Telemetry was set (bounded by its EpochCapacity;
	// EpochsDropped counts samples the ring had to shed).
	Epochs        []telemetry.EpochSample `json:",omitempty"`
	EpochsDropped uint64
	// Counters snapshots the telemetry registry (adaptive.shared_swaps,
	// adaptive.demotions, ...), when telemetry was enabled.
	Counters map[string]uint64 `json:",omitempty"`

	// Histograms snapshots every registry latency distribution when
	// telemetry was enabled: per-core LLC access latency by outcome
	// (llc.c<i>.latency.*), DRAM queue delay (dram.queue_delay), and
	// end-to-end load latency (hierarchy.load_latency), each with
	// interpolated p50/p90/p99 and its non-empty buckets.
	Histograms map[string]telemetry.HistogramSnapshot `json:",omitempty"`

	// SetStats is the adaptive scheme's per-global-set activity (fills,
	// swaps, migrations, demotions, evictions, steals), indexed by set.
	// Present when telemetry was enabled; the data behind nucadbg's
	// heatmaps when a run is inspected live rather than from a trace.
	SetStats []llc.SetStats `json:",omitempty"`

	// ReplayEpochsVerified counts the repartition epochs at which the
	// Config.ReplayVerify cross-check compared trace-reconstructed state
	// against the live cache and found them identical.
	ReplayEpochsVerified uint64 `json:",omitempty"`
	// ReplayVerifyError is the first divergence the self-verifier hit
	// ("" = clean). A non-empty value means the trace is NOT a faithful
	// record of the run — a bug in tracer, replayer, or simulator.
	ReplayVerifyError string `json:",omitempty"`

	// Throughput is the simulator's own speed for this run (always
	// measured; the cost is two clock reads).
	Throughput telemetry.Throughput
}

// Machine is an assembled CMP ready to run; exported so examples can
// inspect components mid-run.
type Machine struct {
	Cfg       Config
	Cores     []*cpu.Core
	Hierarchy *hierarchy.Hierarchy
	Memory    *dram.Memory
	Org       llc.Organization
	Adaptive  *core.Adaptive       // nil unless Scheme == SchemeAdaptive
	Telemetry *telemetry.Telemetry // nil unless Cfg.Telemetry was set
	Verifier  *replay.Verifier     // nil unless Cfg.ReplayVerify (adaptive)

	// ports are the cores' hierarchy ports, which functional warmup
	// switches into deferral.
	ports []*hierarchy.Port

	// mix is the application mix the machine was built for, and
	// buildHash its warmup hash (set on first use): Restore accepts only
	// checkpoints of the same hash.
	mix       []workload.AppParams
	buildHash string

	// origin is the run's measurement origin, set by warmup
	// (NewWarmedMachine) and by a successful Restore. It is nil on a
	// machine that was only built or whose last Restore failed, which
	// can neither Capture nor MeasureWindows.
	origin *origin

	// guard holds the current run's first invariant violation.
	guard *invariantGuard

	// spanRoot is the run's "sim.run" wall-clock span (inert unless
	// Cfg.Telemetry.Spans was set); every phase span nests under it.
	spanRoot telemetry.Span

	now uint64
	// at[i] is the cycle up to which Run has advanced core i, and due[i]
	// that core's next event. Both live here so Run allocates nothing.
	at, due []uint64
}

// startSpan opens a phase span under the run's root. Inert (one branch,
// zero allocation) when spans are disabled.
func (m *Machine) startSpan(name string) telemetry.Span {
	return m.Telemetry.StartSpan(name, m.spanRoot.ID())
}

// endRun ends the run's root span once: it leaves an inert span in its
// place, so a second call records nothing.
func (m *Machine) endRun() {
	m.spanRoot.End()
	m.spanRoot = telemetry.Span{}
}

// NewMachine assembles a CMP running the given application mix (one entry
// per core; len(mix) must equal Cores), wired for a run of cfg.
func NewMachine(cfg Config, mix []workload.AppParams) *Machine {
	cfg = cfg.withDefaults()
	if len(mix) != cfg.Cores {
		panic(fmt.Sprintf("sim: mix has %d apps for %d cores", len(mix), cfg.Cores))
	}
	lat := llc.DefaultLatencies()
	if cfg.Scaled {
		lat = llc.ScaledLatencies()
	}

	d, ok := cfg.Scheme.def()
	if !ok {
		panic("sim: unknown scheme " + string(cfg.Scheme))
	}
	mem := dram.New(memCfg(cfg, d.sharedMem))
	org := d.build(cfg, d.arrayBytes(cfg), d.ways, mem, lat)
	adaptive, _ := org.(*core.Adaptive)

	hcfg := hierarchy.Config{Cores: cfg.Cores}
	if cfg.Scaled {
		hcfg.L2Lat = 11
	}
	h := hierarchy.New(hcfg, org)

	m := &Machine{Hierarchy: h, Memory: mem, Org: org, Adaptive: adaptive,
		mix: append([]workload.AppParams(nil), mix...),
		at:  make([]uint64, cfg.Cores), due: make([]uint64, cfg.Cores)}
	r := rng.New(cfg.Seed)
	for i := 0; i < cfg.Cores; i++ {
		gen := workload.NewGenerator(mix[i], i, r.Fork(uint64(i)+1))
		m.ports = append(m.ports, h.Port(i))
		m.Cores = append(m.Cores, cpu.New(i, cfg.CPU, gen, m.ports[i], bpred.New(bpred.Config{})))
	}
	m.wireRun(cfg)
	return m
}

// wireRun attaches everything that belongs to one run rather than to
// the machine: cfg itself, telemetry with its latency histograms and the
// "sim.run" span root, the replay verifier, and the invariant checker's
// repartition hook. It first detaches whatever an earlier run attached,
// so a machine restored for another run (Restore) carries none of it
// over, and ends a replaced run's root span if it is still open.
// NewMachine and Restore are its only callers.
func (m *Machine) wireRun(cfg Config) {
	m.endRun()
	m.Cfg = cfg
	m.Telemetry, m.Verifier = nil, nil
	m.Memory.SetQueueDelayHistogram(nil)
	m.Hierarchy.SetLoadLatencyHistogram(nil)
	adaptive := m.Adaptive
	if adaptive != nil {
		adaptive.SetTelemetry(nil)
		adaptive.SetSpans(nil, 0)
		adaptive.OnRepartition = nil
	} else if obs, ok := m.Org.(llc.LatencyObserver); ok {
		obs.SetLatencyRecorder(nil)
	}

	tcfg := cfg.Telemetry
	if cfg.ReplayVerify && adaptive != nil {
		// Self-verify needs a lossless trace feeding the replay state
		// machine; tee to any writer the caller already wanted.
		var c telemetry.Config
		if tcfg != nil {
			c = *tcfg
		}
		c.FullTrace = true
		m.Verifier = replay.NewVerifier(adaptive)
		if c.TraceWriter != nil {
			c.TraceWriter = io.MultiWriter(c.TraceWriter, m.Verifier)
		} else {
			c.TraceWriter = m.Verifier
		}
		tcfg = &c
	}
	if tcfg != nil {
		m.Telemetry = telemetry.New(*tcfg)
		reg := &m.Telemetry.Registry
		m.Memory.SetQueueDelayHistogram(reg.Histogram("dram.queue_delay"))
		m.Hierarchy.SetLoadLatencyHistogram(reg.Histogram("hierarchy.load_latency"))
		if adaptive == nil {
			// The adaptive engine wires its own recorder in SetTelemetry;
			// the baseline organizations get one here.
			if obs, ok := m.Org.(llc.LatencyObserver); ok {
				obs.SetLatencyRecorder(llc.NewLatencyRecorder(reg, "llc", cfg.Cores))
			}
		}
		m.spanRoot = m.Telemetry.StartSpan("sim.run", m.Telemetry.SpanParent)
		if adaptive != nil {
			adaptive.SetTelemetry(m.Telemetry)
			adaptive.SetSpans(m.Telemetry.Spans, m.spanRoot.ID())
			if m.Verifier != nil {
				// Flush inside the repartition path so the verifier
				// sees the decision (and everything before it) while
				// the live cache still holds exactly that state.
				tr := m.Telemetry.Trace
				adaptive.OnRepartition = func([]int, bool) { tr.Flush() }
			}
		}
	}
	m.guard = m.armInvariantChecks()
}

func memCfg(cfg Config, shared bool) dram.Config {
	if cfg.Scaled {
		return dram.ScaledConfig(shared)
	}
	if shared {
		return dram.SharedConfig()
	}
	return dram.PrivateConfig()
}

// Now returns the current simulation cycle.
func (m *Machine) Now() uint64 { return m.now }

// cyclesSimulated counts timed cycles across every Machine in the
// process, so batch drivers (cmd/experiments) can report
// simulated-cycles-per-second throughput without threading state through
// every experiment.
var cyclesSimulated atomic.Uint64

// CyclesSimulated returns the process-wide count of timed simulation
// cycles executed so far.
func CyclesSimulated() uint64 { return cyclesSimulated.Load() }

// Run advances the machine by the given number of cycles. Each pass finds
// the earliest next event over the cores and steps, in core order, only
// the cores due then; the cycles a core sleeps through are accounted in
// closed form (cpu.Core.SkipTo). Every core is caught up to the end
// before Run returns, so the machine is exact wherever a caller can
// observe it, and the result is that of stepping every core on every
// cycle.
func (m *Machine) Run(cycles uint64) {
	end := m.now + cycles
	t := uint64(math.MaxUint64)
	for i, c := range m.Cores {
		m.at[i] = m.now
		m.due[i] = c.NextEvent(m.now)
		t = min(t, m.due[i])
	}
	for t < end {
		next := uint64(math.MaxUint64)
		for i, c := range m.Cores {
			if m.due[i] == t {
				c.SkipTo(m.at[i], t)
				c.Step(t)
				m.at[i] = t + 1
				m.due[i] = c.NextEvent(t + 1)
			}
			next = min(next, m.due[i])
		}
		t = next
	}
	for i, c := range m.Cores {
		c.SkipTo(m.at[i], end)
	}
	m.now = end
	cyclesSimulated.Add(cycles)
}

// snapshot captures the counters that the measurement window must be
// relative to.
type snapshot struct {
	instr  []uint64
	access []uint64
	miss   []uint64
}

// origin is where a run's measurement starts: the cycle and the
// counters at its warmup/measure boundary, and the wall-clock time its
// Results' Throughput.Wall runs from. Measured cycles are now − cycle.
type origin struct {
	cycle uint64
	base  snapshot
	wall  time.Time
}

func (m *Machine) snap() snapshot {
	s := snapshot{}
	for i, c := range m.Cores {
		s.instr = append(s.instr, c.Stats().Instructions)
		st := m.Org.CoreStats(i)
		s.access = append(s.access, st.Accesses)
		s.miss = append(s.miss, st.Misses)
	}
	return s
}

// WarmFunctional fast-forwards all cores by n instructions each,
// interleaved in small chunks so shared structures (the LLC organization,
// its partitioning controller) see the mixed stream, then clears the
// memory channel's timing state.
func (m *Machine) WarmFunctional(n uint64) {
	m.warmFunctionalSegment(n)
	m.Memory.Reset()
}

// warmChunk is the per-core interleave of functional warmup: every core
// runs this many instructions before the next core's turn, so shared
// structures (the LLC organization, its partitioning controller) see the
// mixed stream.
const warmChunk = 2000

// warmDepth is how many chunks a warmup worker may run ahead of replay:
// each core has this many logs, so a fast core keeps filling logs while
// replay waits on a slower one, instead of stalling on it every chunk.
const warmDepth = 8

// llcLogs is a process-wide free list of replayed (empty) warmup logs.
// Unlike a sync.Pool, it survives garbage collection, so a log's grown
// capacity is paid for once per process rather than per run. It holds
// the logs of GOMAXPROCS concurrent segments of the default 4 cores, as
// many as nucaserve runs at once by default; logs beyond that are left
// to the collector.
var llcLogs = make(chan *hierarchy.LLCLog, warmDepth*4*runtime.GOMAXPROCS(0))

// getLog takes a log from llcLogs, or makes one when it is empty.
func getLog() *hierarchy.LLCLog {
	select {
	case l := <-llcLogs:
		return l
	default:
		return new(hierarchy.LLCLog)
	}
}

// putLog returns a replayed log to llcLogs, unless it is full.
func putLog(l *hierarchy.LLCLog) {
	select {
	case llcLogs <- l:
	default:
	}
}

// warmLane is one core's side of a pipelined warmup segment.
type warmLane struct {
	free chan *hierarchy.LLCLog // replayed logs the worker may refill
	full chan *hierarchy.LLCLog // filled logs, in chunk order
	// panicked is what the worker recovered before closing full.
	panicked *workerPanic
}

// workerPanic carries a warmup worker's panic, with the worker's stack
// (which re-raising on another goroutine would lose), to the goroutine
// that re-raises it.
type workerPanic struct {
	value any
	stack []byte
}

func (p *workerPanic) Error() string {
	return fmt.Sprintf("%v\n\nwarmup worker goroutine:\n%s", p.value, p.stack)
}

// warmFunctionalSegment is WarmFunctional without the trailing memory
// reset, so RunContext can warm in cancellable segments and still replay
// the exact operation sequence of a single WarmFunctional call (the
// channel's congestion state must persist across segment boundaries or
// latency statistics accumulated during warmup change).
//
// It runs as a pipeline. A core's functional warmup reads no LLC state
// (see hierarchy.Port), so each core runs its chunks on its own worker
// goroutine through a deferring port, and this goroutine replays the
// logged LLC calls of chunk k in core order 0…N−1, exactly the order of
// running the cores' chunks one after another. Everything on the LLC
// side (repartitioning, telemetry, the replay verifier, invariant checks,
// DRAM) stays on this goroutine. Workers inherit its pprof labels. A
// worker's panic is re-raised here; every worker has exited when this
// returns or panics.
func (m *Machine) warmFunctionalSegment(n uint64) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	lanes := make([]warmLane, len(m.Cores))
	defer func() {
		close(stop)
		wg.Wait()
		for i := range lanes {
			for len(lanes[i].free) > 0 {
				putLog(<-lanes[i].free)
			}
		}
	}()
	for i := range lanes {
		l := &lanes[i]
		// Both channels hold every log of the lane, so a send never
		// blocks.
		l.free = make(chan *hierarchy.LLCLog, warmDepth)
		l.full = make(chan *hierarchy.LLCLog, warmDepth)
		for range warmDepth {
			l.free <- getLog()
		}
		wg.Add(1)
		go warmWorker(m.Cores[i], m.ports[i], l, n, stop, &wg)
	}
	for done := uint64(0); done < n; done += warmChunk {
		for i := range lanes {
			l := &lanes[i]
			log, ok := <-l.full
			if !ok {
				panic(l.panicked)
			}
			m.Hierarchy.Replay(log)
			l.free <- log
		}
	}
}

// warmWorker runs core's n warmup instructions in warmChunk chunks, each
// into a log taken from lane.free and handed over on lane.full, until
// done or stop closes. It closes lane.full when it exits, after recording
// any panic in lane.panicked.
func warmWorker(c *cpu.Core, port *hierarchy.Port, lane *warmLane, n uint64, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	defer close(lane.full)
	defer func() {
		if r := recover(); r != nil {
			lane.panicked = &workerPanic{value: r, stack: debug.Stack()}
		}
	}()
	defer port.Defer(nil)
	for done := uint64(0); done < n; done += warmChunk {
		var log *hierarchy.LLCLog
		select {
		case <-stop:
			return
		case log = <-lane.free:
		}
		port.Defer(log)
		c.WarmFunctional(min(warmChunk, n-done))
		lane.full <- log
	}
}

// Run executes a full warmup+measurement simulation of the mix and
// returns the Result. It is the package's main entry point; it panics on
// an invalid configuration or an invariant violation. RunContext is the
// error-returning, interruptible variant.
func Run(cfg Config, mix []workload.AppParams) Result {
	res, err := RunContext(context.Background(), cfg, mix)
	if err != nil {
		panic(err)
	}
	return res
}

// results assembles the Result of a measurement window of window
// cycles from its deltas against the origin. The Result shares no slice
// or map with the machine, so a run that goes on after it leaves it
// unchanged.
func (m *Machine) results(window uint64) Result {
	cfg, before := m.Cfg, m.origin.base
	after := m.snap()

	res := Result{Scheme: cfg.Scheme}
	for _, p := range m.mix {
		res.Mix = append(res.Mix, p.Name)
	}
	kCycles := float64(window) / 1000
	for i := range m.Cores {
		ipc := float64(after.instr[i]-before.instr[i]) / float64(window)
		res.PerCoreIPC = append(res.PerCoreIPC, ipc)
		res.LLCAccessesPerKCycle = append(res.LLCAccessesPerKCycle,
			float64(after.access[i]-before.access[i])/kCycles)
		res.LLCMissesPerKCycle = append(res.LLCMissesPerKCycle,
			float64(after.miss[i]-before.miss[i])/kCycles)
		res.CoreStats = append(res.CoreStats, m.Cores[i].Stats())
	}
	res.HarmonicIPC = stats.HarmonicMean(res.PerCoreIPC)
	res.MeanIPC = stats.Mean(res.PerCoreIPC)
	res.LLCTotal = m.Org.TotalStats()
	res.Memory = m.Memory.Stats
	if m.Adaptive != nil {
		res.PartitionLimits = m.Adaptive.MaxBlocks()
		res.Repartitions = m.Adaptive.Repartitions
		res.Evaluations = m.Adaptive.Evaluations
	}
	if m.Telemetry != nil {
		if m.Adaptive != nil {
			// Counters are epoch-deferred; publish the tail of the run.
			m.Adaptive.FlushTelemetry()
		}
		res.Epochs = m.Telemetry.Epochs.Samples()
		for i := range res.Epochs {
			res.Epochs[i] = res.Epochs[i].Clone()
		}
		res.EpochsDropped = m.Telemetry.Epochs.Dropped()
		res.Counters = m.Telemetry.Registry.Counters()
		res.Histograms = m.Telemetry.Registry.Histograms()
		if m.Adaptive != nil {
			res.SetStats = m.Adaptive.SetStats()
		}
		m.Telemetry.Trace.Flush()
	}
	if m.Verifier != nil {
		res.ReplayEpochsVerified = m.Verifier.EpochsVerified()
		if err := m.Verifier.Err(); err != nil {
			res.ReplayVerifyError = err.Error()
		}
	}
	res.Throughput = telemetry.Throughput{
		Wall:      time.Since(m.origin.wall),
		SimCycles: cfg.WarmupCycles + window,
	}
	return res
}
