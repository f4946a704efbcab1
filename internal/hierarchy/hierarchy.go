// Package hierarchy assembles the per-core upper memory hierarchy of
// Table 1 — split L1 instruction/data caches (64 KB, 2-way, 2/3-cycle),
// split L2 caches (128 KB instruction / 256 KB data, 4-way, 9-cycle), and
// fully-associative 128-entry TLBs with a 30-cycle miss penalty — and
// plumbs it into a pluggable last-level-cache organization
// (llc.Organization: private, shared, cooperative, or the adaptive scheme
// from internal/core).
//
// Each core gets a Port implementing the cpu.Port interface. All levels
// are write-back/write-allocate; dirty victims flow down one level (an L1
// victim marks L2, an L2 victim is handed to the LLC organization, which
// forwards to memory if the block is not resident).
package hierarchy

import (
	"fmt"
	"math"

	"nucasim/internal/cache"
	"nucasim/internal/llc"
	"nucasim/internal/memaddr"
	"nucasim/internal/telemetry"
	"nucasim/internal/tlb"
)

// Config sizes the upper hierarchy. Zero fields select Table 1 defaults;
// §4.5 technology scaling raises L2Lat to 11.
type Config struct {
	Cores int // default 4

	L1Bytes int // default 64 KB (each of I and D)
	L1Ways  int // default 2
	L1ILat  int // default 2
	L1DLat  int // default 3

	L2IBytes int // default 128 KB
	L2DBytes int // default 256 KB
	L2Ways   int // default 4
	L2Lat    int // default 9 (scaled: 11)

	TLB tlb.Config // default Table 1 (128 entries, 30-cycle penalty)
}

func (c Config) withDefaults() Config {
	def := func(p *int, v int) {
		if *p == 0 {
			*p = v
		}
	}
	def(&c.Cores, 4)
	def(&c.L1Bytes, 64<<10)
	def(&c.L1Ways, 2)
	def(&c.L1ILat, 2)
	def(&c.L1DLat, 3)
	def(&c.L2IBytes, 128<<10)
	def(&c.L2DBytes, 256<<10)
	def(&c.L2Ways, 4)
	def(&c.L2Lat, 9)
	return c
}

// Stats aggregates the per-core upper-hierarchy event counts.
type Stats struct {
	L1I, L1D cache.Stats
	L2I, L2D cache.Stats
	ITLB     tlb.Stats
	DTLB     tlb.Stats
}

// Hierarchy owns every core's L1/L2/TLB and the shared LLC organization.
type Hierarchy struct {
	cfg   Config
	org   llc.Organization
	l1i   []*cache.Cache
	l1d   []*cache.Cache
	l2i   []*cache.Cache
	l2d   []*cache.Cache
	itlbs []*tlb.TLB
	dtlbs []*tlb.TLB
	// loadHist, when attached, receives every data load's end-to-end
	// latency (TLB penalty through data return) — the distribution a
	// core actually stalls on, spanning L1 hits to congested DRAM.
	loadHist *telemetry.Histogram
}

// New builds the hierarchy over a last-level organization.
func New(cfg Config, org llc.Organization) *Hierarchy {
	cfg = cfg.withDefaults()
	h := &Hierarchy{cfg: cfg, org: org}
	for i := 0; i < cfg.Cores; i++ {
		h.l1i = append(h.l1i, cache.New(fmt.Sprintf("L1I-%d", i), memaddr.NewGeometry(cfg.L1Bytes, cfg.L1Ways)))
		h.l1d = append(h.l1d, cache.New(fmt.Sprintf("L1D-%d", i), memaddr.NewGeometry(cfg.L1Bytes, cfg.L1Ways)))
		h.l2i = append(h.l2i, cache.New(fmt.Sprintf("L2I-%d", i), memaddr.NewGeometry(cfg.L2IBytes, cfg.L2Ways)))
		h.l2d = append(h.l2d, cache.New(fmt.Sprintf("L2D-%d", i), memaddr.NewGeometry(cfg.L2DBytes, cfg.L2Ways)))
		h.itlbs = append(h.itlbs, tlb.New(cfg.TLB))
		h.dtlbs = append(h.dtlbs, tlb.New(cfg.TLB))
	}
	return h
}

// Organization returns the last-level organization.
func (h *Hierarchy) Organization() llc.Organization { return h.org }

// Stats returns the upper-hierarchy counters of one core.
func (h *Hierarchy) Stats(core int) Stats {
	return Stats{
		L1I:  h.l1i[core].Stats,
		L1D:  h.l1d[core].Stats,
		L2I:  h.l2i[core].Stats,
		L2D:  h.l2d[core].Stats,
		ITLB: h.itlbs[core].Stats,
		DTLB: h.dtlbs[core].Stats,
	}
}

// Reset clears every level (including the LLC organization) and all stats.
func (h *Hierarchy) Reset() {
	for i := 0; i < h.cfg.Cores; i++ {
		h.l1i[i].Reset()
		h.l1d[i].Reset()
		h.l2i[i].Reset()
		h.l2d[i].Reset()
		h.itlbs[i].Reset()
		h.dtlbs[i].Reset()
	}
	h.org.Reset()
}

// Port returns core's view of the hierarchy (implements cpu.Port).
func (h *Hierarchy) Port(core int) *Port {
	return &Port{h: h, core: core}
}

// Port is one core's access path. Methods return absolute completion
// cycles; see cpu.Port.
//
// A port touches only its own core's TLBs and L1/L2 caches until an
// access leaves L2. The last-level organization never reads or
// invalidates those upper levels, so the calls a port makes into it
// depend on the core's own reference stream alone. That is the
// concurrency contract functional warmup relies on: while a port defers
// into an LLCLog (Defer), its core's accesses may run on their own
// goroutine, concurrently with other cores' ports and with Replay of
// earlier logs, and the organization still sees the serial call order.
type Port struct {
	h    *Hierarchy
	core int
	log  *LLCLog // non-nil while deferring
}

// Defer routes the port's last-level calls into log instead of the
// organization, until Defer(nil). While deferring, an access that
// reaches the LLC returns math.MaxUint64: its completion cycle is known
// only once Hierarchy.Replay issues the call. Loads still reach the
// load-latency histogram, through the log.
func (p *Port) Defer(log *LLCLog) {
	if log != nil {
		log.core = p.core
	}
	p.log = log
}

// pending is the completion cycle a deferring port returns for an access
// that reached the last level.
const pending = math.MaxUint64

// llcOp is the kind of one deferred last-level call.
type llcOp uint8

const (
	opAccess    llcOp = iota // Access(core, addr, false, now)
	opLoad                   // opAccess for a data load: replay observes ready-from
	opWriteback              // WritebackFromL2(core, addr, now)
)

type llcCall struct {
	addr memaddr.Addr
	now  uint64
	pen  uint32 // opLoad: TLB penalty, so the load was issued at now-pen
	op   llcOp
}

// LLCLog is one core's deferred last-level traffic: the organization
// calls its port made, in order, and the latencies of loads that never
// left L2 (a histogram is a plain sum, so Replay can merge it in any
// order). The zero value is an empty log; Replay empties it for reuse.
type LLCLog struct {
	core  int
	calls []llcCall
	hits  telemetry.Histogram
}

func (l *LLCLog) add(op llcOp, addr memaddr.Addr, now uint64) {
	l.calls = append(l.calls, llcCall{addr: addr, now: now, op: op})
}

// observeLoad settles a data load issued at from: a load that missed in
// L2 (done == pending, its Access the log's last) is observed by Replay.
func (l *LLCLog) observeLoad(done, from uint64) {
	if done != pending {
		l.hits.Observe(done - from)
		return
	}
	for i := len(l.calls) - 1; ; i-- {
		if c := &l.calls[i]; c.op == opAccess {
			c.op, c.pen = opLoad, uint32(c.now-from)
			return
		}
	}
}

// Replay issues a log's calls into the organization in the order its
// port made them, completes its load-latency observations, and empties
// it for reuse. The organization sees exactly what a direct port would
// have shown it.
func (h *Hierarchy) Replay(l *LLCLog) {
	for _, c := range l.calls {
		switch c.op {
		case opAccess:
			h.org.Access(l.core, c.addr, false, c.now)
		case opLoad:
			ready, _ := h.org.Access(l.core, c.addr, false, c.now)
			h.loadHist.Observe(ready - (c.now - uint64(c.pen)))
		case opWriteback:
			h.org.WritebackFromL2(l.core, c.addr, c.now)
		}
	}
	h.loadHist.Merge(&l.hits)
	l.calls = l.calls[:0]
	l.hits.Reset()
}

// access runs the generic L1→L2→LLC path for the data or instruction
// side. The block number is computed once here and reused by every level
// (each level masks/shifts it for its own set count), instead of each
// level re-splitting the full byte address.
func (p *Port) access(l1, l2 *cache.Cache, l1Lat int, addr memaddr.Addr, write bool, now uint64) uint64 {
	h := p.h
	bn := addr.BlockNum()
	if hit, _ := l1.AccessBlock(bn, write); hit {
		return now + uint64(l1Lat)
	}
	if hit, _ := l2.AccessBlock(bn, false); hit {
		p.fillL1(l1, l2, bn, write, now)
		return now + uint64(h.cfg.L2Lat)
	}
	// L2 miss: the LLC organization resolves it (hit or memory) with
	// latencies measured from the L3 access start.
	ready := uint64(pending)
	if p.log != nil {
		p.log.add(opAccess, addr, now)
	} else {
		ready, _ = h.org.Access(p.core, addr, false, now)
	}
	p.fillL2(l2, bn, now)
	p.fillL1(l1, l2, bn, write, now)
	return ready
}

// writeback hands a dirty victim that left L2 to the organization.
func (p *Port) writeback(addr memaddr.Addr, now uint64) {
	if p.log != nil {
		p.log.add(opWriteback, addr, now)
		return
	}
	p.h.org.WritebackFromL2(p.core, addr, now)
}

// fillL1 installs into L1, sinking a dirty victim into L2.
func (p *Port) fillL1(l1, l2 *cache.Cache, bn memaddr.BlockNum, write bool, now uint64) {
	victim, victimAddr := l1.InstallBlock(bn, write, p.core)
	if victim.Valid && victim.Dirty {
		if !l2.MarkDirtyBlock(victimAddr.BlockNum()) {
			// Victim not in L2 (evicted earlier): push it down to the
			// LLC organization.
			p.writeback(victimAddr, now)
		}
	}
}

// fillL2 installs into L2, sinking a dirty victim into the LLC.
func (p *Port) fillL2(l2 *cache.Cache, bn memaddr.BlockNum, now uint64) {
	victim, victimAddr := l2.InstallBlock(bn, false, p.core)
	if victim.Valid && victim.Dirty {
		p.writeback(victimAddr, now)
	}
}

// SetLoadLatencyHistogram attaches (or, with nil, detaches) the
// end-to-end data-load latency histogram.
func (h *Hierarchy) SetLoadLatencyHistogram(hist *telemetry.Histogram) { h.loadHist = hist }

// ReadData implements cpu.Port.
func (p *Port) ReadData(addr memaddr.Addr, now uint64) uint64 {
	pen := uint64(p.h.dtlbs[p.core].Access(addr))
	done := p.access(p.h.l1d[p.core], p.h.l2d[p.core], p.h.cfg.L1DLat, addr, false, now+pen)
	if p.log != nil {
		p.log.observeLoad(done, now)
		return done
	}
	p.h.loadHist.Observe(done - now)
	return done
}

// WriteData implements cpu.Port (write-allocate; the line is dirtied in
// L1).
func (p *Port) WriteData(addr memaddr.Addr, now uint64) uint64 {
	pen := uint64(p.h.dtlbs[p.core].Access(addr))
	return p.access(p.h.l1d[p.core], p.h.l2d[p.core], p.h.cfg.L1DLat, addr, true, now+pen)
}

// FetchInstr implements cpu.Port.
func (p *Port) FetchInstr(pc memaddr.Addr, now uint64) uint64 {
	pen := uint64(p.h.itlbs[p.core].Access(pc))
	return p.access(p.h.l1i[p.core], p.h.l2i[p.core], p.h.cfg.L1ILat, pc, false, now+pen)
}
