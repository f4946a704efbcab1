package cpu

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"nucasim/internal/bpred"
	"nucasim/internal/memaddr"
	"nucasim/internal/rng"
	"nucasim/internal/workload"
)

// fullScanIssue is the issue stage before wake cycles: it rescans the RUU
// from scanAbs every cycle. It is kept here as the oracle the skipping
// issue must match cycle for cycle.
func (c *Core) fullScanIssue(now uint64) {
	intALU, fpALU := c.cfg.IntALUs, c.cfg.FPALUs
	intMul, fpMul := c.cfg.IntMuls, c.cfg.FPMuls
	memPorts := c.cfg.MemPorts
	issued := 0
	// Retire completed MSHR entries.
	keep := c.mshr[:0]
	for _, t := range c.mshr {
		if t > now {
			keep = append(keep, t)
		}
	}
	c.mshr = keep

	start := c.scanAbs
	if start < c.head {
		start = c.head
	}
	newScan := c.tail
	size := uint64(c.cfg.RUUSize)
	for pos := start; pos < c.tail; pos++ {
		if issued == c.cfg.Width {
			if pos < newScan {
				newScan = pos
			}
			break
		}
		e := &c.ruu[pos%size]
		if e.issued {
			continue
		}
		stuck := func() {
			if newScan == c.tail {
				newScan = pos
			}
		}
		if a := c.producerReady(e.depA); a > now {
			stuck()
			continue
		}
		if b := c.producerReady(e.depB); b > now {
			stuck()
			continue
		}
		switch e.cls {
		case workload.IntALU, workload.Branch:
			if intALU == 0 {
				stuck()
				continue
			}
			intALU--
			e.readyAt = now + uint64(c.cfg.IntALULat)
		case workload.IntMul:
			if intMul == 0 {
				stuck()
				continue
			}
			intMul--
			e.readyAt = now + uint64(c.cfg.IntMulLat)
		case workload.FPALU:
			if fpALU == 0 {
				stuck()
				continue
			}
			fpALU--
			e.readyAt = now + uint64(c.cfg.FPALULat)
		case workload.FPMul:
			if fpMul == 0 {
				stuck()
				continue
			}
			fpMul--
			e.readyAt = now + uint64(c.cfg.FPMulLat)
		case workload.Load:
			if memPorts == 0 || len(c.mshr) >= c.cfg.MSHRs {
				stuck()
				continue
			}
			memPorts--
			e.readyAt = c.port.ReadData(e.addr, now)
			if e.readyAt > now+missThreshold {
				c.mshr = append(c.mshr, e.readyAt)
			}
		case workload.Store:
			if memPorts == 0 || len(c.mshr) >= c.cfg.MSHRs {
				stuck()
				continue
			}
			memPorts--
			c.port.WriteData(e.addr, now)
			e.readyAt = now + 3
		}
		e.issued = true
		c.readyBySeq[e.seq%uint64(len(c.readyBySeq))] = e.readyAt
		issued++
		if c.pendingHoldSet && e.seq == c.pendingHoldSeq {
			c.dispatchHold = e.readyAt + uint64(c.cfg.MispredictPenalty)
			c.pendingHoldSet = false
		}
	}
	c.scanAbs = newScan
}

// referenceStep is Step with the full-scan issue stage.
func (c *Core) referenceStep(now uint64) {
	c.stats.Cycles++
	c.commit(now)
	c.fullScanIssue(now)
	c.dispatch(now)
	c.fetch(now)
}

type portCall struct {
	kind byte // 'R' read, 'W' write, 'F' fetch
	addr memaddr.Addr
	now  uint64
}

// recordingPort logs every call and answers with seed-drawn latencies
// from L1 hits to DRAM misses far past missThreshold. Two ports with the
// same seed answer identical call sequences identically.
type recordingPort struct {
	r   *rng.Rand
	log []portCall
}

func newRecordingPort(seed uint64) *recordingPort {
	return &recordingPort{r: rng.New(seed)}
}

func (p *recordingPort) latency() uint64 {
	switch x := p.r.Intn(100); {
	case x < 55:
		return 1 + p.r.Uint64n(3) // L1
	case x < 75:
		return 4 + p.r.Uint64n(missThreshold-3) // L2, up to missThreshold
	case x < 85:
		return missThreshold + 1 + p.r.Uint64n(30) // L3
	default:
		return 100 + p.r.Uint64n(600) // DRAM, queued
	}
}

func (p *recordingPort) ReadData(a memaddr.Addr, now uint64) uint64 {
	p.log = append(p.log, portCall{'R', a, now})
	return now + p.latency()
}

func (p *recordingPort) WriteData(a memaddr.Addr, now uint64) uint64 {
	p.log = append(p.log, portCall{'W', a, now})
	return now + p.latency()
}

func (p *recordingPort) FetchInstr(a memaddr.Addr, now uint64) uint64 {
	p.log = append(p.log, portCall{'F', a, now})
	if p.r.Intn(10) != 0 {
		return now + 1
	}
	return now + p.latency()
}

// clone returns a port at the same stream position with an empty log.
func (p *recordingPort) clone() *recordingPort {
	r := rng.New(0)
	r.Restore(p.r.State())
	return &recordingPort{r: r}
}

// randomConfig draws a core shape from the ranges the oracle covers.
func randomConfig(r *rng.Rand) Config {
	in := func(lo, hi int) int { return lo + r.Intn(hi-lo+1) }
	return Config{
		RUUSize:           in(8, 256),
		LSQSize:           in(4, 64),
		FetchQueue:        in(1, 8),
		Width:             in(1, 8),
		IntALUs:           in(1, 4),
		FPALUs:            in(1, 4),
		IntMuls:           in(1, 4),
		FPMuls:            in(1, 4),
		MemPorts:          in(1, 4),
		MSHRs:             in(1, 8),
		MispredictPenalty: in(1, 10),
		IntALULat:         in(1, 6),
		IntMulLat:         in(1, 6),
		FPALULat:          in(1, 6),
		FPMulLat:          in(1, 6),
		L1ILat:            in(1, 6),
	}
}

// newOracleCore builds a core over app whose generator, predictor and port
// are functions of seed alone.
func newOracleCore(cfg Config, app workload.AppParams, seed uint64) (*Core, *recordingPort) {
	port := newRecordingPort(seed ^ 0x5eed)
	g := workload.NewGenerator(app, 0, rng.New(seed))
	return New(0, cfg, g, port, bpred.New(bpred.Config{})), port
}

// lockstep steps the core under test and the reference from cycle from
// up to (not including) to, and fails at the first cycle whose port calls
// or snapshot differ.
func lockstep(t *testing.T, what string, c *Core, cp *recordingPort, ref *Core, rp *recordingPort, from, to uint64) {
	t.Helper()
	for now := from; now < to; now++ {
		c.Step(now)
		ref.referenceStep(now)
		if !slices.Equal(cp.log, rp.log) {
			t.Fatalf("%s: cycle %d: port calls differ:\n got %v\nwant %v", what, now, cp.log, rp.log)
		}
		cp.log, rp.log = cp.log[:0], rp.log[:0]
		if !sameState(c.Snapshot(), ref.Snapshot()) {
			t.Fatalf("%s: cycle %d: snapshots differ", what, now)
		}
	}
}

// sameState is reflect.DeepEqual with the large tables compared directly,
// which keeps a per-cycle comparison affordable.
func sameState(a, b State) bool {
	if !slices.Equal(a.ReadyBySeq, b.ReadyBySeq) || !slices.Equal(a.RUU, b.RUU) ||
		!slices.Equal(a.Gen.SiteVisits, b.Gen.SiteVisits) ||
		!slices.Equal(a.Pred.Bimodal, b.Pred.Bimodal) || !slices.Equal(a.Pred.Level2, b.Pred.Level2) ||
		!slices.Equal(a.Pred.Chooser, b.Pred.Chooser) ||
		!slices.EqualFunc(a.Pred.BTB, b.Pred.BTB, slices.Equal) {
		return false
	}
	for _, s := range []*State{&a, &b} {
		s.ReadyBySeq, s.RUU, s.Gen.SiteVisits = nil, nil, nil
		s.Pred.Bimodal, s.Pred.Level2, s.Pred.Chooser, s.Pred.BTB = nil, nil, nil, nil
	}
	return reflect.DeepEqual(a, b)
}

// oracleCycles is long enough to fill the RUU behind DRAM misses, fill
// the MSHRs and cycle through several mispredicts.
func oracleCycles() uint64 {
	if testing.Short() || raceEnabled {
		return 600
	}
	return 2000
}

func TestIssueMatchesFullScanSuite(t *testing.T) {
	for i, app := range workload.Suite() {
		seed := uint64(100 + i)
		c, cp := newOracleCore(Config{}, app, seed)
		ref, rp := newOracleCore(Config{}, app, seed)
		lockstep(t, app.Name, c, cp, ref, rp, 0, oracleCycles())
	}
}

func TestIssueMatchesFullScanRandomConfigs(t *testing.T) {
	r := rng.New(2024)
	suite := workload.Suite()
	n := 30
	if testing.Short() || raceEnabled {
		n = 8
	}
	for i := 0; i < n; i++ {
		cfg := randomConfig(r)
		app := suite[r.Intn(len(suite))]
		seed := r.Uint64()
		c, cp := newOracleCore(cfg, app, seed)
		ref, rp := newOracleCore(cfg, app, seed)
		lockstep(t, fmt.Sprintf("%s %+v", app.Name, cfg), c, cp, ref, rp, 0, oracleCycles())
	}
}

// TestIssueWakeAfterRestore restores a mid-run snapshot into a fresh core
// and into a reused one whose wake cycle lies far beyond the snapshot's
// cycle, and requires both to continue like the reference.
func TestIssueWakeAfterRestore(t *testing.T) {
	app, _ := workload.ByName("mcf")
	cfg := Config{MSHRs: 2}
	const seed = 7
	mid, end := oracleCycles()/2, oracleCycles()
	c, cp := newOracleCore(cfg, app, seed)
	ref, rp := newOracleCore(cfg, app, seed)
	lockstep(t, "before snapshot", c, cp, ref, rp, 0, mid)
	snap, portAtMid := c.Snapshot(), cp.clone()

	resumed := func(core *Core) (*Core, *recordingPort) {
		if err := core.Restore(snap); err != nil {
			t.Fatal(err)
		}
		p := portAtMid.clone()
		core.port = p
		return core, p
	}

	fresh, _ := newOracleCore(cfg, app, seed+1)
	fresh, fp := resumed(fresh)
	lockstep(t, "fresh core after restore", fresh, fp, ref, rp, mid, end)

	// Run c well past mid, until a scan skip is pending, then rewind it.
	now := mid
	for ; (now < mid+200 || c.wakeAt <= now+1) && now < end; now++ {
		c.Step(now)
	}
	if c.wakeAt <= now+1 {
		t.Fatalf("no scan skip pending after cycle %d; the reuse case is not exercised", now)
	}
	c, cp = resumed(c)
	refB, _ := newOracleCore(cfg, app, seed)
	refB, rbp := resumed(refB)
	lockstep(t, "reused core after restore", c, cp, refB, rbp, mid, end)
}

// BenchmarkCoreStep steps one Table 1 core through an mcf-like,
// dispatch-stalled mix over a fake port; make bench-smoke gates it at
// 0 allocs/op.
func BenchmarkCoreStep(b *testing.B) {
	app, _ := workload.ByName("mcf")
	g := workload.NewGenerator(app, 0, rng.New(1))
	c := New(0, Config{}, g, missPort{}, bpred.New(bpred.Config{}))
	now := uint64(0)
	for ; now < 20_000; now++ {
		c.Step(now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step(now)
		now++
	}
	b.StopTimer()
	if s := c.Stats(); s.Instructions == 0 || s.DispatchStalls == 0 {
		b.Fatalf("core did not run stalled: %+v", s)
	}
}

// missPort sends one block in eight to DRAM and hits L1 otherwise.
type missPort struct{}

func (missPort) ReadData(a memaddr.Addr, now uint64) uint64 {
	if uint64(a.Block())*0x9e3779b97f4a7c15>>61 == 0 {
		return now + 300
	}
	return now + 3
}
func (missPort) WriteData(a memaddr.Addr, now uint64) uint64  { return now + 3 }
func (missPort) FetchInstr(a memaddr.Addr, now uint64) uint64 { return now + 2 }
