// Package cpu implements the cycle-level out-of-order core timing model of
// the paper's baseline (Table 1): a SimpleScalar-style machine with a
// 128-entry register update unit (RUU), a 64-entry load/store queue, a
// 4-instruction fetch queue, 4-wide fetch/decode/issue/commit, the Table 1
// functional-unit pool, a combined branch predictor with a 7-cycle
// misprediction penalty, and non-blocking data caches (MSHR-limited miss
// overlap — the memory-level parallelism that determines how much a cache
// miss actually costs).
//
// Step(now) advances one cycle and is exact when called for every cycle.
// Between events most cycles only count stalls, so a driver may instead
// jump a core to NextEvent with SkipTo and Step only there: the core's
// state and every port call come out the same. The simulator does this
// for each core and steps the cores due at a cycle in core order, so
// contention in the shared last-level cache and memory channel is
// interleaved exactly as a cycle-by-cycle loop would interleave it.
//
// Approximations (standard for trace-driven OoO models, documented in
// DESIGN.md): mispredicted branches stall dispatch until the branch
// resolves plus the refill penalty instead of executing wrong-path
// instructions, and stores complete into a write buffer at L1 latency
// while their miss traffic is charged to the hierarchy asynchronously.
package cpu

import (
	"math"

	"nucasim/internal/bpred"
	"nucasim/internal/memaddr"
	"nucasim/internal/workload"
)

// Port is the core's view of the memory hierarchy (implemented by
// internal/hierarchy). All methods return the absolute cycle at which the
// access completes.
type Port interface {
	// ReadData performs a data load issued at cycle now.
	ReadData(addr memaddr.Addr, now uint64) (ready uint64)
	// WriteData performs a data store issued at cycle now
	// (write-allocate; the returned time is when the line is written).
	WriteData(addr memaddr.Addr, now uint64) (ready uint64)
	// FetchInstr fetches the instruction block containing pc.
	FetchInstr(pc memaddr.Addr, now uint64) (ready uint64)
}

// Config sizes the core. Zero fields select Table 1 defaults.
type Config struct {
	RUUSize    int // default 128
	LSQSize    int // default 64
	FetchQueue int // default 4
	Width      int // fetch/decode/issue/commit width, default 4

	IntALUs  int // default 4
	FPALUs   int // default 4
	IntMuls  int // default 1
	FPMuls   int // default 1
	MemPorts int // L1D ports, default 2
	MSHRs    int // outstanding L2-or-beyond misses, default 8

	MispredictPenalty int // default 7

	IntALULat int // default 1
	IntMulLat int // default 3
	FPALULat  int // default 2
	FPMulLat  int // default 4
	L1ILat    int // fetch bubbles start beyond this latency; default 2
}

func (c Config) withDefaults() Config {
	def := func(p *int, v int) {
		if *p == 0 {
			*p = v
		}
	}
	def(&c.RUUSize, 128)
	def(&c.LSQSize, 64)
	def(&c.FetchQueue, 4)
	def(&c.Width, 4)
	def(&c.IntALUs, 4)
	def(&c.FPALUs, 4)
	def(&c.IntMuls, 1)
	def(&c.FPMuls, 1)
	def(&c.MemPorts, 2)
	def(&c.MSHRs, 8)
	def(&c.MispredictPenalty, 7)
	def(&c.IntALULat, 1)
	def(&c.IntMulLat, 3)
	def(&c.FPALULat, 2)
	def(&c.FPMulLat, 4)
	def(&c.L1ILat, 2)
	return c
}

// Stats reports the core's progress and event counts.
type Stats struct {
	Cycles         uint64
	Instructions   uint64 // committed
	Loads          uint64
	Stores         uint64
	Branches       uint64
	Mispredicts    uint64
	FetchStalls    uint64 // cycles fetch was blocked on the I-side
	DispatchStalls uint64 // cycles dispatch was blocked (RUU/LSQ/mispredict)
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// MispredictRate returns mispredicted branches per executed branch.
func (s Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

const notIssued = math.MaxUint64

// readyRing is the number of readyBySeq slots. It is a constant power of
// two, so finding a producer's slot is a mask, not a division.
const readyRing = 4096

// ruuEntry is one in-flight instruction.
type ruuEntry struct {
	cls     workload.Class
	seq     uint64
	depA    uint64 // producer sequence numbers (0 = none)
	depB    uint64
	addr    memaddr.Addr
	readyAt uint64 // completion cycle; notIssued until issued
	issued  bool
}

// Core is one simulated out-of-order processor.
type Core struct {
	ID   int
	cfg  Config
	gen  *workload.Generator
	port Port
	bp   *bpred.Predictor

	// RUU ring buffer. head/tail are absolute instruction positions
	// (index = pos % RUUSize). scanAbs is where a scan of the RUU for
	// unissued entries would start: every entry before it is issued.
	// Issue walks the waiting list instead, but keeps scanAbs exact,
	// since it is part of State.
	ruu     []ruuEntry
	head    uint64
	tail    uint64
	scanAbs uint64
	lsqLen  int
	// headSlot and tailSlot are head and tail modulo RUUSize, advanced
	// with them so the hot paths index the ring without a division.
	// Derived state, set by Restore.
	headSlot, tailSlot uint64

	// waiting holds the positions of the unissued RUU entries in age
	// order, so issue visits only those. Dispatch appends, issue
	// compacts, Restore rebuilds it; it is derived state, not State.
	waiting []uint64

	fetchQ         []workload.Instr
	fetchReady     uint64 // cycle at which the I-side can deliver again
	lastFetchBlock memaddr.Addr

	// Dispatch hold for mispredicted branches: no dispatch until this
	// cycle (branch resolution + refill penalty).
	dispatchHold uint64
	// pendingHoldSeq marks the branch whose resolution sets the hold.
	pendingHoldSeq uint64
	pendingHoldSet bool

	// readyBySeq records the completion cycle of each instruction once
	// it issues (slots are marked pending at dispatch). Producers older
	// than the RUU window have committed and are always ready.
	readyBySeq *[readyRing]uint64

	// mshr holds the completion times of in-flight long-latency loads;
	// its length is the MSHR occupancy.
	mshr []uint64

	// wakeAt is the earliest cycle the issue scan can find work: 0 forces
	// a scan. Dispatch and Restore clear it; it is derived state and not
	// part of State.
	wakeAt uint64

	nextSeq uint64
	stats   Stats
}

// New builds a core over an instruction generator, a memory port, and a
// branch predictor (each core owns its own predictor).
func New(id int, cfg Config, gen *workload.Generator, port Port, bp *bpred.Predictor) *Core {
	cfg = cfg.withDefaults()
	return &Core{
		ID:         id,
		cfg:        cfg,
		gen:        gen,
		port:       port,
		bp:         bp,
		ruu:        make([]ruuEntry, cfg.RUUSize),
		waiting:    make([]uint64, 0, cfg.RUUSize),
		readyBySeq: new([readyRing]uint64),
		fetchQ:     make([]workload.Instr, 0, cfg.FetchQueue),
		mshr:       make([]uint64, 0, cfg.MSHRs),
		nextSeq:    1, // seq 0 means "no producer"
	}
}

// Stats returns a copy of the counters.
func (c *Core) Stats() Stats { return c.stats }

// WarmFunctional advances the core's program by n instructions without
// timing: memory references walk the cache hierarchy (filling it) and
// branches train the predictor, but no cycles pass. This is the classic
// fast-forward-with-warmup used to model the paper's 0.5-1.5 G-instruction
// skip: after it, the caches and predictor hold the working set so the
// timed window measures steady-state behaviour. The caller should
// interleave cores in small chunks (shared structures see interleaved
// streams) and reset the memory channel afterwards.
//
// It touches only this core's own state (generator, predictor) and its
// port, so cores may warm concurrently when their ports keep the shared
// last level out of the way (hierarchy.Port.Defer).
func (c *Core) WarmFunctional(n uint64) {
	var ins workload.Instr
	for i := uint64(0); i < n; i++ {
		c.gen.Next(&ins)
		if blk := ins.PC.Block(); blk != c.lastFetchBlock {
			c.lastFetchBlock = blk
			c.port.FetchInstr(ins.PC, 0)
		}
		switch ins.Class {
		case workload.Load:
			c.port.ReadData(ins.Addr, 0)
		case workload.Store:
			c.port.WriteData(ins.Addr, 0)
		case workload.Branch:
			c.bp.Resolve(ins.PC, ins.Taken, ins.Target)
		}
	}
}

// Step advances the core by one cycle ending at time now. Stages run in
// commit → issue → dispatch → fetch order so a result produced this cycle
// is consumed the next — the usual reverse-pipeline update.
func (c *Core) Step(now uint64) {
	c.stats.Cycles++
	c.commit(now)
	c.issue(now)
	c.dispatch(now)
	c.fetch(now)
}

// NextEvent returns the earliest cycle, not before now, at which Step
// would do more than count stalls and retire MSHRs: the issued commit
// head completes, the issue stage wakes, a dispatch hold lifts over a
// non-empty fetch queue, or the I-side delivers into a queue with room.
// It returns now when dispatch can move an entry. The answer may be
// early, never late: every cycle before it is one SkipTo can account.
func (c *Core) NextEvent(now uint64) uint64 {
	next := c.wakeAt
	if c.head < c.tail {
		if e := &c.ruu[c.headSlot]; e.issued {
			next = min(next, e.readyAt)
		}
	}
	if len(c.fetchQ) < c.cfg.FetchQueue {
		next = min(next, c.fetchReady)
	}
	if len(c.fetchQ) > 0 && !c.pendingHoldSet {
		if now < c.dispatchHold {
			next = min(next, c.dispatchHold)
		} else if !c.dispatchBlocked(c.fetchQ[0].Class) {
			return now
		}
	}
	return max(next, now)
}

// SkipTo accounts for the cycles from up to (not including) to as Step
// would, provided none of them is an event (to <= NextEvent(from)): it
// adds their Cycles, FetchStalls and DispatchStalls in closed form and
// retires the MSHRs that complete by to-1.
func (c *Core) SkipTo(from, to uint64) {
	if to <= from {
		return
	}
	n := to - from
	c.stats.Cycles += n
	if c.fetchReady > from {
		c.stats.FetchStalls += min(c.fetchReady, to) - from
	}
	// Nothing dispatches in the window, so a non-empty fetch queue
	// stalls on every cycle: behind the hold, then behind the full RUU
	// or LSQ. An empty one stalls only while the hold lasts.
	if c.pendingHoldSet || len(c.fetchQ) > 0 {
		c.stats.DispatchStalls += n
	} else if c.dispatchHold > from {
		c.stats.DispatchStalls += min(c.dispatchHold, to) - from
	}
	c.retireMSHRs(to - 1)
}

func (c *Core) commit(now uint64) {
	for n := 0; n < c.cfg.Width && c.head < c.tail; n++ {
		e := &c.ruu[c.headSlot]
		if !e.issued || e.readyAt > now {
			return
		}
		if e.cls == workload.Load || e.cls == workload.Store {
			c.lsqLen--
		}
		c.head++
		c.headSlot = c.nextSlot(c.headSlot)
		c.stats.Instructions++
	}
}

// producerReady returns the completion cycle of the instruction with
// sequence number dep: 0 when there is no producer (dep == 0), notIssued
// while the producer waits in the RUU, and its readyAt once it has issued.
// A committed producer keeps its slot (it completed at or before now) until
// a later dispatch reuses it.
func (c *Core) producerReady(dep uint64) uint64 {
	if dep == 0 {
		return 0
	}
	return c.readyBySeq[dep%uint64(len(c.readyBySeq))]
}

// retireMSHRs drops the misses that complete by cycle now.
func (c *Core) retireMSHRs(now uint64) {
	keep := c.mshr[:0]
	for _, t := range c.mshr {
		if t > now {
			keep = append(keep, t)
		}
	}
	c.mshr = keep
}

// issue runs the issue stage over the waiting list: the unissued entries
// oldest first, which is the order a scan of the RUU from scanAbs would
// meet them in. A pass that issues nothing also records in wakeAt the
// earliest cycle at which any entry could issue; until then, and unless
// dispatch adds an entry, every pass would issue nothing and leave
// scanAbs where it is, so the pass is skipped (DESIGN.md §5).
func (c *Core) issue(now uint64) {
	// Retire completed MSHR entries. This runs every cycle, skipped pass
	// or not, so the MSHR slice always matches a full pass.
	c.retireMSHRs(now)
	if now < c.wakeAt {
		return
	}

	intALU, fpALU := c.cfg.IntALUs, c.cfg.FPALUs
	intMul, fpMul := c.cfg.IntMuls, c.cfg.FPMuls
	memPorts := c.cfg.MemPorts
	issued := 0
	// wake is the earliest cycle a stuck entry could issue. An entry
	// whose producer has not issued contributes nothing: its producer is
	// an older unissued entry of this same pass and bounds it.
	wake := uint64(notIssued)

	// newScan becomes the scan frontier after this pass: the first stuck
	// position, else the one after the Width-th issue, else tail.
	newScan := c.tail
	// Every waiting position lies in [head, head+size), so its slot is
	// an offset from the head's slot, wrapped once.
	size := uint64(c.cfg.RUUSize)
	w := c.waiting
	kept := 0
	i := 0
	for ; i < len(w) && issued < c.cfg.Width; i++ {
		pos := w[i]
		slot := c.headSlot + (pos - c.head)
		if slot >= size {
			slot -= size
		}
		e := &c.ruu[slot]
		// at is the cycle from which a stuck entry could issue; 0 means
		// it issues now.
		at := max(c.producerReady(e.depA), c.producerReady(e.depB))
		if at <= now {
			at = 0
			switch e.cls {
			case workload.IntALU, workload.Branch:
				if intALU == 0 {
					at = now + 1
					break
				}
				intALU--
				e.readyAt = now + uint64(c.cfg.IntALULat)
			case workload.IntMul:
				if intMul == 0 {
					at = now + 1
					break
				}
				intMul--
				e.readyAt = now + uint64(c.cfg.IntMulLat)
			case workload.FPALU:
				if fpALU == 0 {
					at = now + 1
					break
				}
				fpALU--
				e.readyAt = now + uint64(c.cfg.FPALULat)
			case workload.FPMul:
				if fpMul == 0 {
					at = now + 1
					break
				}
				fpMul--
				e.readyAt = now + uint64(c.cfg.FPMulLat)
			case workload.Load, workload.Store:
				if memPorts == 0 {
					at = now + 1
					break
				}
				if len(c.mshr) >= c.cfg.MSHRs {
					at = c.firstMSHRDone()
					break
				}
				memPorts--
				if e.cls == workload.Load {
					e.readyAt = c.port.ReadData(e.addr, now)
					if e.readyAt > now+missThreshold {
						c.mshr = append(c.mshr, e.readyAt)
					}
				} else {
					// Write-buffer approximation: traffic charged
					// now, completion at L1 write latency.
					c.port.WriteData(e.addr, now)
					e.readyAt = now + 3
				}
			}
		}
		if at != 0 {
			if kept == 0 {
				newScan = pos
			}
			w[kept] = pos
			kept++
			wake = min(wake, at)
			continue
		}
		e.issued = true
		c.readyBySeq[e.seq%uint64(len(c.readyBySeq))] = e.readyAt
		issued++
		if issued == c.cfg.Width && kept == 0 && pos+1 < c.tail {
			newScan = pos + 1
		}
		// A resolving mispredicted branch releases dispatch after the
		// refill penalty.
		if c.pendingHoldSet && e.seq == c.pendingHoldSeq {
			c.dispatchHold = e.readyAt + uint64(c.cfg.MispredictPenalty)
			c.pendingHoldSet = false
		}
	}
	if kept < i {
		c.waiting = w[:kept+copy(w[kept:], w[i:])]
	}
	c.scanAbs = newScan
	if issued > 0 {
		// Issuing changes producer times and resources, and a width-
		// limited pass left entries unvisited: look again next cycle.
		wake = now + 1
	}
	c.wakeAt = wake
}

// firstMSHRDone returns the earliest completion among in-flight misses:
// the cycle a full MSHR file frees a slot.
func (c *Core) firstMSHRDone() uint64 {
	first := uint64(notIssued)
	for _, t := range c.mshr {
		first = min(first, t)
	}
	return first
}

// missThreshold is the latency above which a load counts as an L2-or-worse
// miss and occupies an MSHR (Table 1: L2 hits complete within 9 cycles).
const missThreshold = 12

// nextSlot returns the RUU slot after slot.
func (c *Core) nextSlot(slot uint64) uint64 {
	if slot++; slot == uint64(c.cfg.RUUSize) {
		return 0
	}
	return slot
}

// dispatchBlocked reports whether an instruction of class cls, the
// oldest fetched, cannot enter the machine for want of an RUU or LSQ
// slot.
func (c *Core) dispatchBlocked(cls workload.Class) bool {
	if c.tail-c.head == uint64(c.cfg.RUUSize) {
		return true
	}
	return (cls == workload.Load || cls == workload.Store) && c.lsqLen == c.cfg.LSQSize
}

func (c *Core) dispatch(now uint64) {
	if now < c.dispatchHold || c.pendingHoldSet {
		c.stats.DispatchStalls++
		return
	}
	// n counts the fetched instructions taken; the queue drops them in
	// one move after the loop.
	n := 0
	for n < c.cfg.Width && n < len(c.fetchQ) {
		ins := &c.fetchQ[n]
		if c.dispatchBlocked(ins.Class) {
			c.stats.DispatchStalls++
			break
		}
		n++
		isMem := ins.Class == workload.Load || ins.Class == workload.Store
		seq := c.nextSeq
		c.nextSeq++
		e := ruuEntry{
			cls:     ins.Class,
			seq:     seq,
			addr:    ins.Addr,
			readyAt: notIssued,
		}
		// Producers further back than the RUU window have committed and
		// are always ready; recording them would alias into the ring.
		if d := uint64(ins.Dep1); d > 0 && d < seq && d <= uint64(c.cfg.RUUSize) {
			e.depA = seq - d
		}
		if d := uint64(ins.Dep2); d > 0 && d < seq && d <= uint64(c.cfg.RUUSize) {
			e.depB = seq - d
		}
		// Mark the slot in readyBySeq as pending so dependents never
		// see a stale completion from a previous lap of the ring.
		c.readyBySeq[seq%uint64(len(c.readyBySeq))] = notIssued
		c.ruu[c.tailSlot] = e
		c.waiting = append(c.waiting, c.tail)
		c.tail++
		c.tailSlot = c.nextSlot(c.tailSlot)
		c.wakeAt = 0
		if isMem {
			c.lsqLen++
			if ins.Class == workload.Load {
				c.stats.Loads++
			} else {
				c.stats.Stores++
			}
		}
		if ins.Class == workload.Branch {
			c.stats.Branches++
			if c.bp.Resolve(ins.PC, ins.Taken, ins.Target) {
				c.stats.Mispredicts++
				// Dispatch freezes until this branch resolves in
				// the pipeline plus the refill penalty.
				c.pendingHoldSeq = seq
				c.pendingHoldSet = true
				break
			}
		}
	}
	if n > 0 {
		c.fetchQ = c.fetchQ[:copy(c.fetchQ, c.fetchQ[n:])]
	}
}

func (c *Core) fetch(now uint64) {
	if now < c.fetchReady {
		c.stats.FetchStalls++
		return
	}
	var ins workload.Instr
	for n := 0; n < c.cfg.Width && len(c.fetchQ) < c.cfg.FetchQueue; n++ {
		c.gen.Next(&ins)
		blk := ins.PC.Block()
		if blk != c.lastFetchBlock {
			c.lastFetchBlock = blk
			ready := c.port.FetchInstr(ins.PC, now)
			if ready > now+uint64(c.cfg.L1ILat) {
				// I-side miss: the just-fetched instruction arrives
				// when the block does; stall further fetch.
				c.fetchReady = ready
				c.fetchQ = append(c.fetchQ, ins)
				return
			}
		}
		c.fetchQ = append(c.fetchQ, ins)
	}
}
