// Package telemetry is the simulator's observability substrate: a
// zero-allocation-on-hot-path counter/gauge registry, an epoch sampler
// that records the sharing engine's state at every repartitioning
// evaluation into a bounded ring buffer, a structured JSONL event trace
// with per-event-type sampling, and pprof/throughput helpers for
// observing the simulator process itself.
//
// Everything is nil-safe by design: a nil *Telemetry (and nil *Tracer,
// *Counter, *Gauge, *Ring, *SpanRecorder) turns every method into a
// no-op, so instrumented hot paths pay exactly one pointer comparison
// when telemetry is disabled. The simulator is single-threaded, like the
// rest of the codebase; none of these types lock except SpanRecorder,
// which serve workers share across goroutines.
package telemetry

import (
	"io"
	"sort"
)

// Config parameterizes one telemetry instance. The zero value enables the
// epoch ring at its default capacity with no event trace.
type Config struct {
	// Run labels every trace event (the "run" JSON field), so several
	// runs can share one JSONL sink and stay distinguishable.
	Run string

	// EpochCapacity bounds the epoch ring buffer (default 8192 samples,
	// ≈16 M LLC misses of history at the paper's 2000-miss period).
	// The ring grows with the samples it holds up to this bound; past
	// it, the oldest samples are dropped and counted.
	EpochCapacity int

	// TraceWriter receives JSON Lines events; nil disables the trace.
	// The caller owns the writer (and closes any underlying file).
	TraceWriter io.Writer

	// SampleEvery sets the 1-in-N sampling rate per event kind. Unset
	// kinds use DefaultSampleEvery. KindRepartition should stay at 1:
	// decision events are what make a trace replayable.
	SampleEvery map[Kind]uint64

	// FullTrace records every event of every kind (sampleEvery=1 across
	// the board, overriding SampleEvery). A full trace is lossless: it
	// carries every fill, hit, swap, migrate, demote and evict with tag
	// and LRU depth, which is what internal/replay needs to reconstruct
	// per-set cache state exactly. Expect traces orders of magnitude
	// larger than the sampled default.
	FullTrace bool

	// OnEpoch, if set, receives every epoch sample as it is appended to
	// the ring. It runs on the simulation goroutine, synchronously with
	// the repartition decision; the sample's slices are shared with the
	// ring's copy, so the callback must treat them as read-only (copy
	// them before handing the sample to another goroutine). This is how
	// a live consumer — the job server streaming NDJSON progress —
	// observes epochs without racing the lock-free ring.
	OnEpoch func(EpochSample)

	// OnProgress, if set, receives coarse phase progress (warmup /
	// measurement advancement) from the simulation driver at its
	// cancellation-check granularity. Like OnEpoch it runs on the
	// simulation goroutine and must be cheap.
	//
	// Hooks are process-local live wiring, not state: checkpoints do not
	// carry them (gob ignores func fields) and a resumed run is silent
	// unless the caller re-installs them (the attach callback of
	// sim.ResumeFromCheckpoint and sim.Machine.Restore).
	OnProgress func(Progress)

	// Spans, if set, receives wall-clock phase spans from the simulation
	// driver (warmup segments, measurement chunks, repartition
	// evaluations, checkpoint and artifact writes). Nil disables span
	// recording at one branch per phase boundary. Like the hooks above,
	// spans are process-local live wiring: checkpoints strip the whole
	// Config, and a resumed run records into whatever recorder its
	// caller re-attaches.
	Spans *SpanRecorder

	// SpanParent is the span the simulation's root span nests under
	// (zero for a root of its own). Carried as a SpanID, not a Span
	// handle, so Config stays gob-describable for the checkpoint's type
	// graph.
	SpanParent SpanID
}

// Progress is one coarse progress report from the simulation driver:
// how far the named phase has advanced toward its known total.
type Progress struct {
	// Phase is "warmup-functional" (units: instructions per core),
	// "warmup-cycles", or "measure" (units: cycles).
	Phase string `json:"phase"`
	Done  uint64 `json:"done"`
	Total uint64 `json:"total"`
}

// DefaultEpochCapacity is the epoch ring size when Config leaves it zero.
const DefaultEpochCapacity = 8192

// DefaultSampleEvery is the per-kind sampling applied where Config is
// silent: decisions are never sampled out; high-frequency block events
// keep 1 in 16 so full-length runs stay tractable.
func DefaultSampleEvery(k Kind) uint64 {
	if k == KindRepartition {
		return 1
	}
	return 16
}

// Telemetry bundles the three observation channels handed to the
// simulator. A nil *Telemetry disables everything.
type Telemetry struct {
	Registry Registry
	Epochs   *Ring
	Trace    *Tracer

	// Spans is the wall-clock span flight recorder (nil when disabled)
	// and SpanParent the ID its phase spans nest under.
	Spans      *SpanRecorder
	SpanParent SpanID

	onEpoch    func(EpochSample)
	onProgress func(Progress)
}

// New builds a telemetry instance from cfg.
func New(cfg Config) *Telemetry {
	capacity := cfg.EpochCapacity
	if capacity <= 0 {
		capacity = DefaultEpochCapacity
	}
	t := &Telemetry{
		Epochs:     NewRing(capacity),
		Spans:      cfg.Spans,
		SpanParent: cfg.SpanParent,
		onEpoch:    cfg.OnEpoch,
		onProgress: cfg.OnProgress,
	}
	if cfg.TraceWriter != nil {
		sampleEvery := cfg.SampleEvery
		if cfg.FullTrace {
			sampleEvery = make(map[Kind]uint64, numKinds)
			for k := Kind(0); k < numKinds; k++ {
				sampleEvery[k] = 1
			}
		}
		t.Trace = NewTracer(cfg.TraceWriter, cfg.Run, sampleEvery)
	}
	return t
}

// Enabled reports whether this instance observes anything.
func (t *Telemetry) Enabled() bool { return t != nil }

// RecordEpoch appends one sample to the epoch ring and forwards it to
// the Config.OnEpoch hook, if any.
func (t *Telemetry) RecordEpoch(s EpochSample) {
	if t == nil {
		return
	}
	t.Epochs.Append(s)
	if t.onEpoch != nil {
		t.onEpoch(s)
	}
}

// StartSpan opens a phase span under parent on this instance's
// recorder. Nil-safe at one branch when spans are disabled.
func (t *Telemetry) StartSpan(name string, parent SpanID) Span {
	if t == nil {
		return Span{}
	}
	return t.Spans.StartSpan(name, parent)
}

// ReportProgress forwards one phase-progress report to the
// Config.OnProgress hook. Nil-safe and free when no hook is installed.
func (t *Telemetry) ReportProgress(p Progress) {
	if t == nil || t.onProgress == nil {
		return
	}
	t.onProgress(p)
}

// Counter is a monotonically increasing uint64. Nil receivers no-op, so
// call sites never need to guard.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a settable int64 level. Nil receivers no-op.
type Gauge struct{ v int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v = v
	}
}

// Add adjusts the level by delta.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v += delta
	}
}

// Value returns the current level (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Registry hands out named counters and gauges. Registration (the map
// lookup and possible allocation) happens once at setup; the returned
// pointers are then free of allocation and lookup on the hot path. The
// zero value is ready to use; a nil *Registry hands out nil instruments.
type Registry struct {
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if c, ok := r.counters[name]; ok {
		return c
	}
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if g, ok := r.gauges[name]; ok {
		return g
	}
	if r.gauges == nil {
		r.gauges = make(map[string]*Gauge)
	}
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	if h, ok := r.histograms[name]; ok {
		return h
	}
	if r.histograms == nil {
		r.histograms = make(map[string]*Histogram)
	}
	h := &Histogram{}
	r.histograms[name] = h
	return h
}

// Counters snapshots every registered counter, keyed by name.
func (r *Registry) Counters() map[string]uint64 {
	if r == nil {
		return nil
	}
	out := make(map[string]uint64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	return out
}

// Gauges snapshots every registered gauge, keyed by name.
func (r *Registry) Gauges() map[string]int64 {
	if r == nil {
		return nil
	}
	out := make(map[string]int64, len(r.gauges))
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	return out
}

// Histograms snapshots every registered histogram, keyed by name.
func (r *Registry) Histograms() map[string]HistogramSnapshot {
	if r == nil || len(r.histograms) == 0 {
		return nil
	}
	out := make(map[string]HistogramSnapshot, len(r.histograms))
	for name, h := range r.histograms {
		out[name] = h.SnapshotView()
	}
	return out
}

// Names returns the registered counter names, sorted (for stable
// reporting).
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
