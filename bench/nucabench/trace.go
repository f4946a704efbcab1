package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
	_ "unsafe" // for go:linkname

	"nucasim/internal/bpred"
	"nucasim/internal/cpu"
	"nucasim/internal/dram"
	"nucasim/internal/hierarchy"
	"nucasim/internal/llc"
	"nucasim/internal/memaddr"
	"nucasim/internal/rng"
	"nucasim/internal/sim"
	"nucasim/internal/stats"
	"nucasim/internal/workload"
)

// boundary is one layer entry point the traced run times from outside.
type boundary int

const (
	bStep         boundary = iota // cpu.(*Core).Step
	bWarm                         // cpu.(*Core).WarmFunctional
	bPort                         // hierarchy.(*Port).{ReadData,WriteData,FetchInstr}
	bLLCAccess                    // llc.Organization.Access (includes DRAM)
	bLLCWriteback                 // llc.Organization.WritebackFromL2
	nBoundary
)

var boundaryName = [nBoundary]string{"cpu.Step", "cpu.WarmFunctional", "hierarchy.Port", "llc.Access", "llc.WritebackFromL2"}

// callSampleMask keeps one call span in 4096 per boundary for the trace file.
const callSampleMask = 4096 - 1

// tracer keeps per-boundary aggregates in memory: calls, total time and
// self time (total minus the time of timed calls nested inside). child
// accumulates the nested time of the innermost open call; each wrapper
// saves it on entry and hands its own total up on exit, so nesting costs
// two clock reads and no allocation.
type tracer struct {
	child int64
	calls [nBoundary]int64
	total [nBoundary]int64
	self  [nBoundary]int64
	spans *spanLog
}

// nanotime is the runtime's monotonic clock: one clock read where
// time.Now takes two (wall and monotonic), which halves what every timed
// call costs.
//
//go:linkname nanotime runtime.nanotime
func nanotime() int64

func (t *tracer) enter() (int64, int64) {
	saved := t.child
	t.child = 0
	return nanotime(), saved
}

func (t *tracer) exit(b boundary, start, saved int64) {
	d := nanotime() - start
	t.calls[b]++
	t.total[b] += d
	t.self[b] += d - t.child
	t.child = saved + d
	if t.calls[b]&callSampleMask == 0 {
		t.spans.addNano(boundaryName[b], "call", tidCalls+int(b), start, d)
	}
}

func (t *tracer) reset() { *t = tracer{spans: t.spans} }

// timedPort times every core→hierarchy call.
type timedPort struct {
	p *hierarchy.Port
	t *tracer
}

func (tp *timedPort) ReadData(a memaddr.Addr, now uint64) uint64 {
	s, c := tp.t.enter()
	r := tp.p.ReadData(a, now)
	tp.t.exit(bPort, s, c)
	return r
}

func (tp *timedPort) WriteData(a memaddr.Addr, now uint64) uint64 {
	s, c := tp.t.enter()
	r := tp.p.WriteData(a, now)
	tp.t.exit(bPort, s, c)
	return r
}

func (tp *timedPort) FetchInstr(pc memaddr.Addr, now uint64) uint64 {
	s, c := tp.t.enter()
	r := tp.p.FetchInstr(pc, now)
	tp.t.exit(bPort, s, c)
	return r
}

// timedOrg times every hierarchy→LLC call; the remaining methods pass
// through untimed.
type timedOrg struct {
	llc.Organization
	t *tracer
}

func (o *timedOrg) Access(core int, a memaddr.Addr, write bool, now uint64) (uint64, bool) {
	s, c := o.t.enter()
	r, hit := o.Organization.Access(core, a, write, now)
	o.t.exit(bLLCAccess, s, c)
	return r, hit
}

func (o *timedOrg) WritebackFromL2(core int, a memaddr.Addr, now uint64) {
	s, c := o.t.enter()
	o.Organization.WritebackFromL2(core, a, now)
	o.t.exit(bLLCWriteback, s, c)
}

// simCounters are the simulated statistics the traced run must reproduce
// exactly.
type simCounters struct {
	Cores        []cpu.Stats
	LLC          llc.AccessStats
	Memory       dram.Stats
	Evaluations  uint64
	Repartitions uint64
}

func countersOf(r sim.Result) simCounters {
	return simCounters{Cores: r.CoreStats, LLC: r.LLCTotal, Memory: r.Memory,
		Evaluations: r.Evaluations, Repartitions: r.Repartitions}
}

func (a simCounters) equal(b simCounters) bool {
	if len(a.Cores) != len(b.Cores) {
		return false
	}
	for i := range a.Cores {
		if a.Cores[i] != b.Cores[i] {
			return false
		}
	}
	return a.LLC == b.LLC && a.Memory == b.Memory &&
		a.Evaluations == b.Evaluations && a.Repartitions == b.Repartitions
}

// tracedOut is one traced simulation: its counters, per-core
// upper-hierarchy statistics and harmonic-mean IPC.
type tracedOut struct {
	counters   simCounters
	hier       []hierarchy.Stats
	ipcHM      float64
	warmInstrs uint64 // functional warmup instructions, all cores
}

// runTraced replays sim.Run's work for (cfg, mix) on a machine whose
// cores and hierarchy are rebuilt around timing wrappers. sim.NewMachine
// supplies the LLC organization and memory channel; the hierarchy and
// cores are rebuilt the way NewMachine builds them, drawing the
// generators' seeds from rng.New(cfg.Seed) in the same order. Warmup
// interleaves cores in sim's 2000-instruction chunks and then resets the
// channel, and the timed window steps every core once per cycle, so the
// simulated statistics match sim.Run bit for bit (checked by the caller).
func runTraced(cfg sim.Config, mix []workload.AppParams, t *tracer) tracedOut {
	m := sim.NewMachine(cfg, mix)
	cfg = m.Cfg
	hcfg := hierarchy.Config{Cores: cfg.Cores}
	if cfg.Scaled {
		hcfg.L2Lat = 11
	}
	h := hierarchy.New(hcfg, &timedOrg{Organization: m.Org, t: t})
	r := rng.New(cfg.Seed)
	if cfg.Scheme == sim.SchemeCoop {
		r.Fork(0xC0) // NewMachine's cooperative organization draws first
	}
	cores := make([]*cpu.Core, cfg.Cores)
	for i := range cores {
		gen := workload.NewGenerator(mix[i], i, r.Fork(uint64(i)+1))
		cores[i] = cpu.New(i, cfg.CPU, gen, &timedPort{p: h.Port(i), t: t}, bpred.New(bpred.Config{}))
	}

	phase := time.Now()
	const chunk = 2000
	for done := uint64(0); done < cfg.WarmupInstructions; done += chunk {
		step := min(uint64(chunk), cfg.WarmupInstructions-done)
		for _, c := range cores {
			s, saved := t.enter()
			c.WarmFunctional(step)
			t.exit(bWarm, s, saved)
		}
	}
	m.Memory.Reset()
	t.spans.add("warm_functional", "phase", tidPhases, phase, time.Since(phase))

	phase = time.Now()
	step := func(now uint64) {
		for _, c := range cores {
			s, saved := t.enter()
			c.Step(now)
			t.exit(bStep, s, saved)
		}
	}
	now := uint64(0)
	for ; now < cfg.WarmupCycles; now++ {
		step(now)
	}
	before := make([]uint64, len(cores))
	for i, c := range cores {
		before[i] = c.Stats().Instructions
	}
	for end := now + cfg.MeasureCycles; now < end; now++ {
		step(now)
	}
	t.spans.add("timed_cycles", "phase", tidPhases, phase, time.Since(phase))

	out := tracedOut{warmInstrs: uint64(cfg.Cores) * cfg.WarmupInstructions}
	ipc := make([]float64, len(cores))
	for i, c := range cores {
		st := c.Stats()
		out.counters.Cores = append(out.counters.Cores, st)
		out.hier = append(out.hier, h.Stats(i))
		ipc[i] = float64(st.Instructions-before[i]) / float64(cfg.MeasureCycles)
	}
	out.ipcHM = stats.HarmonicMean(ipc)
	out.counters.LLC = m.Org.TotalStats()
	out.counters.Memory = m.Memory.Stats
	if m.Adaptive != nil {
		out.counters.Evaluations = m.Adaptive.Evaluations
		out.counters.Repartitions = m.Adaptive.Repartitions
	}
	return out
}

// layerLedger accumulates traced operations: each op's wall time next
// to the tracer's per-boundary aggregates, so self times plus the
// residual (time outside every timed call) must add up to the wall.
type layerLedger struct {
	ops        int
	wall       int64
	calls      [nBoundary]int64
	total      [nBoundary]int64
	self       [nBoundary]int64
	warmInstrs uint64
	// accesses and misses of the L1 data caches, L2 data caches and data
	// TLBs, summed over cores and ops
	l1d, l2d, dtlb [2]uint64
	ipcHM          []float64
}

func (l *layerLedger) add(t *tracer, wall time.Duration, out tracedOut) {
	l.ops++
	l.wall += int64(wall)
	for b := range t.calls {
		l.calls[b] += t.calls[b]
		l.total[b] += t.total[b]
		l.self[b] += t.self[b]
	}
	l.warmInstrs += out.warmInstrs
	for _, h := range out.hier {
		l.l1d[0] += h.L1D.Accesses
		l.l1d[1] += h.L1D.Misses
		l.l2d[0] += h.L2D.Accesses
		l.l2d[1] += h.L2D.Misses
		l.dtlb[0] += h.DTLB.Accesses
		l.dtlb[1] += h.DTLB.Misses
	}
	l.ipcHM = append(l.ipcHM, out.ipcHM)
}

// check verifies the accounting: the layers' self times plus the
// residual must reproduce the traced wall within 2%.
func (l *layerLedger) check() error {
	var selfSum int64
	for b := range l.self {
		selfSum += l.self[b]
	}
	top := l.total[bStep] + l.total[bWarm]
	residual := l.wall - top
	if l.wall <= 0 || residual < 0 {
		return fmt.Errorf("trace accounting: wall %d ns, top-level calls %d ns", l.wall, top)
	}
	if d := float64(selfSum+residual-l.wall) / float64(l.wall); d > 0.02 || d < -0.02 {
		return fmt.Errorf("trace accounting: self times + residual differ from traced wall by %.2f%%", 100*d)
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func rate(r [2]uint64) float64 { return ratio(float64(r[1]), float64(r[0])) }

// fill reports the per-layer metrics the ledger measures.
func (l *layerLedger) fill(m metrics) {
	ops := float64(l.ops)
	wall := float64(l.wall)
	f := func(v int64) float64 { return float64(v) }
	m["trace.residual_share"] = ratio(wall-f(l.total[bStep]+l.total[bWarm]), wall)
	m["cpu.step_calls"] = f(l.calls[bStep]) / ops
	m["cpu.step_self_ns"] = ratio(f(l.self[bStep]), f(l.calls[bStep]))
	m["cpu.warm_self_ns_per_instr"] = ratio(f(l.self[bWarm]), float64(l.warmInstrs))
	m["cpu.self_share"] = ratio(f(l.self[bStep]+l.self[bWarm]), wall)
	m["cpu.ipc_hm"] = median(l.ipcHM)
	m["hierarchy.port_calls"] = f(l.calls[bPort]) / ops
	m["hierarchy.port_self_ns"] = ratio(f(l.self[bPort]), f(l.calls[bPort]))
	m["hierarchy.self_share"] = ratio(f(l.self[bPort]), wall)
	m["hierarchy.l1d_miss_rate"] = rate(l.l1d)
	m["hierarchy.l2d_miss_rate"] = rate(l.l2d)
	m["hierarchy.dtlb_miss_rate"] = rate(l.dtlb)
	m["llc.access_calls"] = f(l.calls[bLLCAccess]) / ops
	m["llc.access_ns"] = ratio(f(l.total[bLLCAccess]), f(l.calls[bLLCAccess]))
	m["llc.writeback_calls"] = f(l.calls[bLLCWriteback]) / ops
	m["llc.writeback_ns"] = ratio(f(l.total[bLLCWriteback]), f(l.calls[bLLCWriteback]))
	m["llc.self_share"] = ratio(f(l.total[bLLCAccess]+l.total[bLLCWriteback]), wall)
}

// Chrome trace-event threads of the Perfetto file.
const (
	tidOps    = 1
	tidPhases = 2
	tidCalls  = 10 // + boundary
	tidClient = 20 // + load-generator connection
)

// maxSpans bounds the trace file; later spans are counted, not kept.
const maxSpans = 200_000

// spanLog keeps spans in memory and writes them, at exit, as Chrome
// trace-event JSON (complete "X" events), which Perfetto loads.
type spanLog struct {
	mu         sync.Mutex
	origin     time.Time
	originNano int64 // nanotime() at origin
	events     []traceEvent
	dropped    int
}

type traceEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // microseconds since origin
	Dur  float64 `json:"dur"` // microseconds
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now(), originNano: nanotime()} }

func (s *spanLog) add(name, cat string, tid int, start time.Time, d time.Duration) {
	if s != nil {
		s.addNano(name, cat, tid, s.originNano+int64(start.Sub(s.origin)), int64(d))
	}
}

// addNano records a span whose start is a nanotime() reading.
func (s *spanLog) addNano(name, cat string, tid int, start, d int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.events) >= maxSpans {
		s.dropped++
		return
	}
	s.events = append(s.events, traceEvent{
		Name: name, Cat: cat, Ph: "X",
		Ts:  float64(start-s.originNano) / 1e3,
		Dur: float64(d) / 1e3,
		Pid: 1, Tid: tid,
	})
}

func (s *spanLog) write(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{
		"traceEvents":     s.events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"dropped_spans": s.dropped, "call_sample": callSampleMask + 1},
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// clockPairNs calibrates what the two clock reads of one timed call cost.
func clockPairNs() float64 {
	const n = 1 << 20
	var sink int64
	start := time.Now()
	for i := 0; i < n; i++ {
		t := nanotime()
		sink += nanotime() - t
	}
	_ = sink
	return float64(time.Since(start).Nanoseconds()) / n
}
