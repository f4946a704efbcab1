package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"nucasim/internal/sim"
	"nucasim/internal/sweep"
	"nucasim/internal/telemetry"
	"nucasim/internal/workload"
)

// simBench is a closed-loop simulator workload: one client runs ops back
// to back, and op i simulates at seed e.seed + i%8. An op is one sim.Run
// of cfg, or, when windows is set, one sweep.RunLocal over a
// MeasureCycles axis of those windows (one shared warmup, eight forks).
type simBench struct {
	cfg     sim.Config
	mix     []workload.AppParams
	windows []uint64
	points  map[uint64][]sweep.Point // sweep points by op seed
}

func mixOf(names ...string) []workload.AppParams {
	mix := make([]workload.AppParams, len(names))
	for i, n := range names {
		p, ok := workload.ByName(n)
		if !ok {
			panic("unknown application " + n)
		}
		mix[i] = p
	}
	return mix
}

// newTable1 is the paper's Table 1 machine with private LLCs running
// gzip/mcf/ammp/wupwise at a quarter of BenchmarkTable1's window: timed
// cycles dominate, as in every figure run.
func newTable1(smoke bool) *simBench {
	cfg := sim.Config{Scheme: sim.SchemePrivate, WarmupInstructions: 100_000, WarmupCycles: 25_000, MeasureCycles: 50_000}
	if smoke {
		cfg.WarmupInstructions, cfg.WarmupCycles, cfg.MeasureCycles = 20_000, 5_000, 10_000
	}
	return &simBench{cfg: cfg, mix: mixOf("gzip", "mcf", "ammp", "wupwise")}
}

// newWarmup is almost all functional fast-forward through the adaptive
// LLC (generator, hierarchy, repartitioning); the timed core barely runs.
func newWarmup(smoke bool) *simBench {
	cfg := sim.Config{Scheme: sim.SchemeAdaptive, WarmupInstructions: 200_000, WarmupCycles: 2_000, MeasureCycles: 2_000}
	if smoke {
		cfg.WarmupInstructions = 40_000
	}
	return &simBench{cfg: cfg, mix: mixOf("ammp", "art", "mcf", "swim")}
}

// newSweep is the warmup-fork path: one adaptive warmup, its checkpoint
// encoded once and decoded and resumed for each of eight windows.
func newSweep(smoke bool) *simBench {
	cfg := sim.Config{Scheme: sim.SchemeAdaptive, WarmupInstructions: 100_000, WarmupCycles: 10_000}
	windows := []uint64{1_000, 2_000, 3_000, 4_000, 5_000, 6_000, 7_000, 8_000}
	if smoke {
		cfg.WarmupInstructions, cfg.WarmupCycles = 20_000, 2_000
	}
	return &simBench{cfg: cfg, mix: mixOf("ammp", "art", "mcf", "swim"), windows: windows}
}

func (b *simBench) setup(e *env) error {
	if b.windows != nil {
		b.points = make(map[uint64][]sweep.Point)
		for k := uint64(0); k < seedsPerRun; k++ {
			seed := e.seed + k
			var apps []string
			for _, p := range b.mix {
				apps = append(apps, p.Name)
			}
			pts, err := sweep.Expand(sweep.Spec{
				Base: sweep.Base{Scheme: string(b.cfg.Scheme), Apps: apps, Seed: seed,
					WarmupInstructions: b.cfg.WarmupInstructions, WarmupCycles: b.cfg.WarmupCycles},
				Axes: sweep.Axes{MeasureCycles: b.windows},
			}, 0)
			if err != nil {
				return err
			}
			b.points[seed] = pts
		}
	}
	rs, err := b.op(e.seed)
	if err != nil {
		return err
	}
	return e.verify(seedKey(e.seed), digests(rs))
}

func (b *simBench) close() {}

// op runs one untraced operation.
func (b *simBench) op(seed uint64) ([]sim.Result, error) {
	rs, _, err := b.opStats(seed)
	return rs, err
}

// opStats is op that also returns how a sweep op executed.
func (b *simBench) opStats(seed uint64) ([]sim.Result, sweep.LocalStats, error) {
	ctx := context.Background()
	if b.windows == nil {
		cfg := b.cfg
		cfg.Seed = seed
		r, err := sim.RunContext(ctx, cfg, b.mix)
		return []sim.Result{r}, sweep.LocalStats{}, err
	}
	pts := b.points[seed]
	rs, st, err := sweep.RunLocal(ctx, pts, sweep.LocalOptions{})
	if err == nil && (st.WarmupsRun != 1 || st.Forked != len(pts)) {
		err = fmt.Errorf("sweep ran %d warmups and forked %d of %d points, want 1 and all", st.WarmupsRun, st.Forked, len(pts))
	}
	return rs, st, err
}

// instrs counts the simulated instructions an op executed: functional
// warmup plus every committed instruction. A sweep's points share one
// warmup, so its instructions are counted once.
func (b *simBench) instrs(rs []sim.Result) uint64 {
	var n uint64
	cores := uint64(len(b.mix))
	if b.windows == nil {
		for _, r := range rs {
			n += cores * b.cfg.WarmupInstructions
			for _, c := range r.CoreStats {
				n += c.Instructions
			}
		}
		return n
	}
	n = cores * b.cfg.WarmupInstructions
	for p, r := range rs {
		mc := float64(b.windows[p])
		for i, c := range r.CoreStats {
			measured := uint64(math.Round(r.PerCoreIPC[i] * mc))
			n += measured
			if p == 0 {
				n += c.Instructions - measured // the shared timed warmup
			}
		}
	}
	return n
}

func (b *simBench) measure(e *env, m metrics) (tally, error) {
	var lat []float64
	var wall float64
	var instrs, alloc uint64
	// At least 50 ops, so ten lie beyond p80 even when the host runs slow.
	minOps := 50
	if e.smoke {
		minOps = 1
	}
	tl := loop(e.seed, e.seconds, minOps, func(seed uint64) error {
		a0 := allocBytes()
		start := time.Now()
		rs, err := b.op(seed)
		d := time.Since(start)
		alloc += allocBytes() - a0
		if err != nil {
			lat = append(lat, failedLatencyMs(e))
			return err
		}
		lat = append(lat, float64(d)/1e6)
		wall += d.Seconds()
		instrs += b.instrs(rs)
		e.host.sample()
		return e.verify(seedKey(seed), digests(rs))
	})
	m["op_ms_p50"] = quantile(lat, 0.5)
	m["op_ms_p80"] = quantile(lat, 0.8)
	m["sim_minstr_per_s"] = ratio(float64(instrs)/1e6, wall)
	m["alloc_mb_per_op"] = float64(alloc) / (1 << 20) / float64(tl.attempted)
	return tl, nil
}

// trace measures the layers: first untraced ops under a CPU profile
// (folded into share.*), then the same ops traced, with the traced
// simulated statistics checked against the untraced ones, then isolated
// probes. Sweep ops are traced at their checkpoint boundaries; the core,
// hierarchy and LLC layers of a sweep are measured on cold traced runs of
// its points, which the fork-equivalence tests prove identical to forks.
func (b *simBench) trace(e *env, m metrics) (tally, error) {
	untraced := make(map[uint64][]sim.Result)
	var untracedWalls []float64
	var instrs uint64
	var tl tally
	var st sweep.LocalStats
	prof, err := startProfile(e)
	if err != nil {
		return tl, err
	}
	tl.add(loop(e.seed, 0.35*e.seconds, minTracedOps(e), func(seed uint64) error {
		start := time.Now()
		rs, opSt, err := b.opStats(seed)
		d := time.Since(start)
		st = opSt
		if err != nil {
			return err
		}
		e.spans.add("op", "op", tidOps, start, d)
		untracedWalls = append(untracedWalls, d.Seconds())
		instrs += b.instrs(rs)
		if _, ok := untraced[seed]; !ok {
			untraced[seed] = rs
		}
		return e.verify(seedKey(seed), digests(rs))
	}))
	if err := prof.stop(m); err != nil {
		return tl, err
	}
	if tl.failed > 0 {
		return tl, fmt.Errorf("%d untraced ops failed", tl.failed)
	}
	resultsOf := func(seed uint64) ([]sim.Result, error) {
		if rs, ok := untraced[seed]; ok {
			return rs, nil
		}
		rs, err := b.op(seed)
		if err == nil {
			err = e.verify(seedKey(seed), digests(rs))
			untraced[seed] = rs
		}
		return rs, err
	}

	var tracedWalls []float64
	if b.windows != nil {
		var phases [4]time.Duration
		var ckBytes, decodeAlloc float64
		tl.add(loop(e.seed, 0.3*e.seconds, minTracedOps(e), func(seed uint64) error {
			start := time.Now()
			rs, ph, size, alloc, err := b.tracedSweep(e, seed)
			d := time.Since(start)
			if err != nil {
				return err
			}
			e.spans.add("traced sweep op", "op", tidOps, start, d)
			tracedWalls = append(tracedWalls, d.Seconds())
			for i := range phases {
				phases[i] += ph[i]
			}
			ckBytes, decodeAlloc = float64(size), decodeAlloc+alloc
			return e.verify(seedKey(seed), digests(rs))
		}))
		var total float64
		for _, w := range tracedWalls {
			total += w * 1e9
		}
		m["checkpoint.warmup_share"] = ratio(float64(phases[0]), total)
		m["checkpoint.encode_share"] = ratio(float64(phases[1]), total)
		m["checkpoint.decode_share"] = ratio(float64(phases[2]), total)
		m["checkpoint.resume_share"] = ratio(float64(phases[3]), total)
		m["checkpoint.bytes"] = ckBytes
		m["checkpoint.decode_alloc_mb"] = decodeAlloc / (1 << 20) / float64(len(tracedWalls)*len(b.windows))
		m["sweep.points"] = float64(len(b.points[e.seed]))
		m["sweep.warmups_run"] = float64(st.WarmupsRun)
		m["sweep.forked"] = float64(st.Forked)
	}

	// Cold traced runs: the workload's own ops, or a sweep's points.
	var ledger layerLedger
	t := &tracer{spans: e.spans}
	i := 0
	tl.add(loop(e.seed, 0.4*e.seconds, minTracedOps(e), func(seed uint64) error {
		rs, err := resultsOf(seed)
		if err != nil {
			return err
		}
		cfg, want := b.cfg, rs[0]
		cfg.Seed = seed
		if b.windows != nil {
			p := i % len(b.windows)
			cfg, want = b.points[seed][p].Cfg, rs[p]
		}
		i++
		t.reset()
		start := time.Now()
		out := runTraced(cfg, b.mix, t)
		d := time.Since(start)
		e.spans.add("traced op", "op", tidOps, start, d)
		if b.windows == nil {
			tracedWalls = append(tracedWalls, d.Seconds())
		}
		ledger.add(t, d, out)
		if !out.counters.equal(countersOf(want)) {
			return fmt.Errorf("traced run at seed %d differs from the untraced run: %+v vs %+v", seed, out.counters, countersOf(want))
		}
		return nil
	}))
	if tl.failed > 0 {
		return tl, fmt.Errorf("%d traced ops failed", tl.failed)
	}
	if err := ledger.check(); err != nil {
		return tl, err
	}
	ledger.fill(m)
	m["trace.op_ms"] = 1e3 * median(tracedWalls)
	m["trace.overhead_x"] = median(tracedWalls) / median(untracedWalls)

	var all []sim.Result
	for _, rs := range untraced {
		all = append(all, rs...)
	}
	simulatedStats(all, m)
	sample := untraced[e.seed][0]
	opWall := median(untracedWalls)
	m["workload.instr_per_op"] = float64(instrs) / float64(len(untracedWalls))
	cfg := b.cfg
	cfg.Seed = e.seed
	if b.windows != nil {
		cfg = b.points[e.seed][0].Cfg
	}
	if err := probeLayers(e, cfg, b.mix, sample, m); err != nil {
		return tl, err
	}
	m["workload.est_share"] = m["workload.next_ns"] * m["workload.instr_per_op"] / (opWall * 1e9)
	return tl, nil
}

// tracedSweep replays sweep.RunLocal's forked path for one op with each
// checkpoint boundary timed: warmup, encode, then per point decode and
// resume. It returns the results, the four phase totals, the encoded
// checkpoint size and the bytes the decodes allocated.
func (b *simBench) tracedSweep(e *env, seed uint64) ([]sim.Result, [4]time.Duration, int, float64, error) {
	var ph [4]time.Duration
	ctx := context.Background()
	pts := b.points[seed]
	timed := func(i int, name string, f func() error) error {
		start := time.Now()
		err := f()
		d := time.Since(start)
		ph[i] += d
		e.spans.add(name, "phase", tidPhases, start, d)
		return err
	}
	warmCfg := pts[0].Cfg
	warmCfg.Telemetry = &telemetry.Config{Run: "warmup-" + pts[0].WarmupHash[:12]}
	var ck *sim.Checkpoint
	var data []byte
	err := timed(0, "checkpoint.warmup", func() (err error) {
		ck, err = sim.WarmupCheckpoint(ctx, warmCfg, pts[0].Mix)
		return err
	})
	if err == nil {
		err = timed(1, "checkpoint.encode", func() (err error) { data, err = ck.Encode(); return err })
	}
	var rs []sim.Result
	var alloc uint64
	for _, p := range pts {
		if err != nil {
			break
		}
		var fork *sim.Checkpoint
		a0 := allocBytes()
		err = timed(2, "checkpoint.decode", func() (err error) { fork, err = sim.DecodeCheckpoint(data); return err })
		alloc += allocBytes() - a0
		if err != nil {
			break
		}
		fork.Cfg.MeasureCycles = p.Cfg.MeasureCycles
		label := p.Label
		var r sim.Result
		err = timed(3, "checkpoint.resume", func() (err error) {
			r, err = sim.ResumeFromCheckpoint(ctx, fork, func(c *telemetry.Config) bool { c.Run = label; return true })
			return err
		})
		rs = append(rs, r)
	}
	return rs, ph, len(data), float64(alloc), err
}

// simulatedStats reports the simulated-machine per-layer metrics, per
// simulation run, from untraced results.
func simulatedStats(rs []sim.Result, m metrics) {
	var cycles, stalls, acc, miss, remote, evals, reparts, reads, wbs, queue, busy, horizon float64
	for _, r := range rs {
		for _, c := range r.CoreStats {
			cycles += float64(c.Cycles)
			stalls += float64(c.DispatchStalls)
		}
		acc += float64(r.LLCTotal.Accesses)
		miss += float64(r.LLCTotal.Misses)
		remote += float64(r.LLCTotal.RemoteHits)
		evals += float64(r.Evaluations)
		reparts += float64(r.Repartitions)
		reads += float64(r.Memory.Reads)
		wbs += float64(r.Memory.Writebacks)
		queue += float64(r.Memory.QueueCycles)
		busy += float64(r.Memory.BusyCycles)
		horizon += float64(r.Throughput.SimCycles)
	}
	n := float64(len(rs))
	m["cpu.dispatch_stall_frac"] = ratio(stalls, cycles)
	m["llc.miss_rate"] = ratio(miss, acc)
	m["llc.remote_hit_frac"] = ratio(remote, acc)
	m["llc.evaluations"] = evals / n
	m["llc.repartitions"] = reparts / n
	m["dram.reads"] = reads / n
	m["dram.writebacks"] = wbs / n
	m["dram.queue_cycles_per_read"] = ratio(queue, reads)
	m["dram.utilization"] = ratio(busy, horizon)
}
