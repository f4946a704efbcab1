package hierarchy

import (
	"testing"

	"nucasim/internal/dram"
	"nucasim/internal/llc"
	"nucasim/internal/memaddr"
	"nucasim/internal/rng"
	"nucasim/internal/telemetry"
)

func newH(t *testing.T) (*Hierarchy, *dram.Memory) {
	t.Helper()
	mem := dram.New(dram.PrivateConfig())
	org := llc.NewPrivateSized(4, mem, 1<<20, 4, llc.DefaultLatencies().LocalHit, "private")
	return New(Config{}, org), mem
}

func addr(core int, v uint64) memaddr.Addr {
	return memaddr.Addr(v).WithSpace(core)
}

func TestL1HitLatency(t *testing.T) {
	h, _ := newH(t)
	p := h.Port(0)
	a := addr(0, 0x10000)
	p.ReadData(a, 0) // cold: fills all levels
	if ready := p.ReadData(a, 1000); ready != 1003 {
		t.Fatalf("L1D hit ready at %d, want 1003", ready)
	}
	p.FetchInstr(a, 2000) // cold on the I-side: ITLB + L1I fill
	if ready := p.FetchInstr(a, 3000); ready != 3002 {
		t.Fatalf("L1I hit ready at %d, want 3002", ready)
	}
}

func TestL2HitLatency(t *testing.T) {
	h, _ := newH(t)
	p := h.Port(0)
	a := addr(0, 0x20000)
	p.ReadData(a, 0)
	// Evict a from L1D (64KB 2-way, 512 sets): two conflicting blocks.
	conflict1 := a + memaddr.Addr(64<<10)
	conflict2 := a + memaddr.Addr(128<<10)
	p.ReadData(conflict1, 100)
	p.ReadData(conflict2, 200)
	if ready := p.ReadData(a, 1000); ready != 1009 {
		t.Fatalf("L2D hit ready at %d, want 1009 (9-cycle L2)", ready)
	}
}

func TestColdMissGoesToMemory(t *testing.T) {
	h, _ := newH(t)
	p := h.Port(0)
	// Cold read: TLB miss (30) + memory 258.
	ready := p.ReadData(addr(0, 0x30000), 0)
	if ready != 30+258 {
		t.Fatalf("cold read ready at %d, want 288 (TLB 30 + mem 258)", ready)
	}
	// Same page, new block: TLB hits, memory again.
	ready = p.ReadData(addr(0, 0x30040), 1000)
	if ready != 1258 {
		t.Fatalf("second cold read at %d, want 1258", ready)
	}
}

func TestTLBPenaltyApplied(t *testing.T) {
	h, _ := newH(t)
	p := h.Port(0)
	a := addr(0, 0x50000)
	p.ReadData(a, 0)
	// New page, warm block? New page implies new block; read another
	// address on a NEW page twice: second access has no TLB penalty.
	b := addr(0, 0x60000)
	p.ReadData(b, 0)
	if ready := p.ReadData(b, 500); ready != 503 {
		t.Fatalf("warm page read at %d, want 503", ready)
	}
	st := h.Stats(0)
	if st.DTLB.Misses < 2 {
		t.Fatalf("expected at least 2 DTLB misses, got %+v", st.DTLB)
	}
}

func TestWritePropagatesDirtyThroughLevels(t *testing.T) {
	mem := dram.New(dram.PrivateConfig())
	org := llc.NewPrivateSized(1, mem, 1<<20, 4, llc.DefaultLatencies().LocalHit, "private")
	h := New(Config{Cores: 1}, org)
	p := h.Port(0)
	base := addr(0, 0x100000)
	p.WriteData(base, 0) // dirty in L1
	// Walk enough conflicting blocks through the same L1 set to force the
	// dirty victim into L2, then through L2 to the LLC.
	for i := uint64(1); i <= 40; i++ {
		p.ReadData(base+memaddr.Addr(i*64<<10), uint64(i*1000))
	}
	// The LLC holds the block (filled on the original write) and should
	// have absorbed the writeback; memory writebacks stay 0 until the LLC
	// itself evicts.
	st := h.Stats(0)
	if st.L1D.Writebacks == 0 {
		t.Fatal("L1 never wrote back the dirty block")
	}
}

func TestPortsAreIsolatedPerCore(t *testing.T) {
	h, _ := newH(t)
	a := addr(0, 0x70000)
	h.Port(0).ReadData(a, 0)
	// Core 1 reading its own space at the same offset must miss.
	ready := h.Port(1).ReadData(addr(1, 0x70000), 0)
	if ready < 250 {
		t.Fatalf("core 1 should cold-miss, ready at %d", ready)
	}
	st0, st1 := h.Stats(0), h.Stats(1)
	if st0.L1D.Accesses != 1 || st1.L1D.Accesses != 1 {
		t.Fatalf("per-core L1 stats wrong: %d, %d", st0.L1D.Accesses, st1.L1D.Accesses)
	}
}

func TestStatsAndReset(t *testing.T) {
	h, _ := newH(t)
	p := h.Port(2)
	p.ReadData(addr(2, 0x1000), 0)
	p.FetchInstr(addr(2, 0x2000), 0)
	st := h.Stats(2)
	if st.L1D.Accesses != 1 || st.L1I.Accesses != 1 {
		t.Fatalf("stats wrong: %+v", st)
	}
	h.Reset()
	st = h.Stats(2)
	if st.L1D.Accesses != 0 || h.Organization().TotalStats().Accesses != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestScaledL2Latency(t *testing.T) {
	mem := dram.New(dram.ScaledConfig(false))
	org := llc.NewPrivateSized(4, mem, 1<<20, 4, llc.ScaledLatencies().LocalHit, "private")
	h := New(Config{L2Lat: 11}, org)
	p := h.Port(0)
	a := addr(0, 0x20000)
	p.ReadData(a, 0)
	conflict1 := a + memaddr.Addr(64<<10)
	conflict2 := a + memaddr.Addr(128<<10)
	p.ReadData(conflict1, 100)
	p.ReadData(conflict2, 200)
	if ready := p.ReadData(a, 1000); ready != 1011 {
		t.Fatalf("scaled L2 hit at %d, want 1011", ready)
	}
}

func TestL2MissUsesLLCLatency(t *testing.T) {
	h, _ := newH(t)
	p := h.Port(0)
	a := addr(0, 0x90000)
	p.ReadData(a, 0) // cold fill everywhere
	// Evict a from L1D (64 KB index space: 64 KB stride aliases) and L2D
	// (the same stride aliases there too, since 1024 sets × 64 B = 64 KB
	// of index space), while the 1 MB L3 (4096 sets × 64 B = 256 KB of
	// index space) spreads the five conflict blocks over four different
	// sets — a's L3 set only receives a and a+256K, well within 4 ways.
	for i := uint64(1); i <= 5; i++ {
		p.ReadData(a+memaddr.Addr(i*64<<10), i*1000)
	}
	ready := p.ReadData(a, 100_000)
	if ready != 100_014 {
		t.Fatalf("LLC hit ready at %d, want 100014 (14-cycle private L3)", ready)
	}
}

// llcCallRec is one call a recordingOrg saw.
type llcCallRec struct {
	writeback bool
	core      int
	addr      memaddr.Addr
	write     bool
	now       uint64
}

// recordingOrg is a last-level organization that logs every call and
// answers with a latency derived from the address, so a reordered or
// misattributed call changes both the log and the load histogram.
type recordingOrg struct {
	calls []llcCallRec
}

func (o *recordingOrg) Name() string { return "recording" }

func (o *recordingOrg) Access(core int, a memaddr.Addr, write bool, now uint64) (uint64, bool) {
	o.calls = append(o.calls, llcCallRec{core: core, addr: a, write: write, now: now})
	return now + 14 + uint64(a.BlockNum())%300, false
}

func (o *recordingOrg) WritebackFromL2(core int, a memaddr.Addr, now uint64) {
	o.calls = append(o.calls, llcCallRec{writeback: true, core: core, addr: a, now: now})
}

func (o *recordingOrg) CoreStats(int) llc.AccessStats { return llc.AccessStats{} }
func (o *recordingOrg) TotalStats() llc.AccessStats   { return llc.AccessStats{} }
func (o *recordingOrg) Reset()                        { o.calls = nil }

// TestDeferredPortReplaysDirectCallSequence drives the same random
// two-core stream through direct ports and through deferring ports whose
// logs are replayed batch by batch: the organization must see the
// identical (core, addr, write, now) sequence, every access that stayed
// above the LLC must return the same cycle, and the load-latency
// histogram must come out identical.
func TestDeferredPortReplaysDirectCallSequence(t *testing.T) {
	const cores = 2
	type op struct {
		kind int // 0 read, 1 write, 2 fetch
		addr memaddr.Addr
		now  uint64
	}
	r := rng.New(3)
	var batches [][]op // batch i runs on core i%cores
	now := uint64(0)
	for b := 0; b < 400; b++ {
		core := b % cores
		batch := make([]op, 1+r.Intn(60))
		for i := range batch {
			now += uint64(r.Intn(40))
			// 1 MB per core: four times L2D, so L2 misses and dirty L2
			// victims are common.
			a := memaddr.Addr(r.Uint64n(1<<20) &^ 7).WithSpace(core)
			batch[i] = op{kind: r.Intn(3), addr: a, now: now}
		}
		batches = append(batches, batch)
	}
	run := func(p *Port, o op) uint64 {
		switch o.kind {
		case 0:
			return p.ReadData(o.addr, o.now)
		case 1:
			return p.WriteData(o.addr, o.now)
		}
		return p.FetchInstr(o.addr, o.now)
	}

	directOrg := &recordingOrg{}
	direct := New(Config{Cores: cores}, directOrg)
	var directHist telemetry.Histogram
	direct.SetLoadLatencyHistogram(&directHist)
	deferredOrg := &recordingOrg{}
	deferred := New(Config{Cores: cores}, deferredOrg)
	var deferredHist telemetry.Histogram
	deferred.SetLoadLatencyHistogram(&deferredHist)
	var dPorts, fPorts [cores]*Port
	for c := range dPorts {
		dPorts[c], fPorts[c] = direct.Port(c), deferred.Port(c)
	}

	var log LLCLog
	llcBound := 0
	for b, batch := range batches {
		core := b % cores
		fPorts[core].Defer(&log)
		want := make([]uint64, len(batch))
		for i, o := range batch {
			want[i] = run(dPorts[core], o)
		}
		for i, o := range batch {
			got := run(fPorts[core], o)
			if got == pending {
				llcBound++
				continue
			}
			if got != want[i] {
				t.Fatalf("batch %d op %d: deferred port returned %d, direct %d", b, i, got, want[i])
			}
		}
		fPorts[core].Defer(nil)
		deferred.Replay(&log)
		if len(log.calls) != 0 || log.hits != (telemetry.Histogram{}) {
			t.Fatalf("batch %d: Replay left the log non-empty", b)
		}
	}
	if llcBound == 0 {
		t.Fatal("no access reached the LLC; the stream does not exercise deferral")
	}
	if len(deferredOrg.calls) != len(directOrg.calls) {
		t.Fatalf("deferred replay made %d LLC calls, direct ports %d", len(deferredOrg.calls), len(directOrg.calls))
	}
	writebacks := 0
	for i, c := range directOrg.calls {
		if deferredOrg.calls[i] != c {
			t.Fatalf("LLC call %d: deferred %+v, direct %+v", i, deferredOrg.calls[i], c)
		}
		if c.writeback {
			writebacks++
		}
	}
	if writebacks == 0 {
		t.Fatal("no writeback reached the LLC; the stream does not exercise victim deferral")
	}
	if deferredHist != directHist {
		t.Fatalf("load-latency histogram differs:\ndeferred %+v\ndirect   %+v", deferredHist.SnapshotView(), directHist.SnapshotView())
	}
	for c := 0; c < cores; c++ {
		if deferred.Stats(c) != direct.Stats(c) {
			t.Fatalf("core %d upper-hierarchy stats differ", c)
		}
	}
}

// BenchmarkPortDeferred measures a data load through a deferring port,
// with the log replayed into a private LLC every 1024 loads and reused.
// CI asserts 0 allocs/op: a reused log keeps its capacity.
func BenchmarkPortDeferred(b *testing.B) {
	mem := dram.New(dram.PrivateConfig())
	h := New(Config{Cores: 1}, llc.NewPrivateSized(1, mem, 1<<20, 4, llc.DefaultLatencies().LocalHit, "private"))
	h.SetLoadLatencyHistogram(new(telemetry.Histogram))
	p := h.Port(0)
	r := rng.New(1)
	addrs := make([]memaddr.Addr, 4096)
	for i := range addrs {
		addrs[i] = addr(0, r.Uint64n(1<<21))
	}
	var log LLCLog
	p.Defer(&log)
	for i := range addrs {
		p.ReadData(addrs[i], 0)
	}
	h.Replay(&log)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ReadData(addrs[i%len(addrs)], 0)
		if i%1024 == 1023 {
			h.Replay(&log)
		}
	}
}
