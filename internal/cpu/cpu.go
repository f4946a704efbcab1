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
	"fmt"
	"math"
	"math/bits"

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

// Validate reports a configuration New cannot build: a negative field
// (zero selects the default), or an RUU larger than the readyBySeq ring
// that names each in-flight instruction by its sequence number.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"RUUSize", c.RUUSize}, {"LSQSize", c.LSQSize}, {"FetchQueue", c.FetchQueue},
		{"Width", c.Width}, {"IntALUs", c.IntALUs}, {"FPALUs", c.FPALUs},
		{"IntMuls", c.IntMuls}, {"FPMuls", c.FPMuls}, {"MemPorts", c.MemPorts},
		{"MSHRs", c.MSHRs}, {"MispredictPenalty", c.MispredictPenalty},
		{"IntALULat", c.IntALULat}, {"IntMulLat", c.IntMulLat},
		{"FPALULat", c.FPALULat}, {"FPMulLat", c.FPMulLat}, {"L1ILat", c.L1ILat},
	} {
		if f.v < 0 {
			return fmt.Errorf("cpu: %s = %d, must be non-negative", f.name, f.v)
		}
	}
	if c.RUUSize > readyRing {
		return fmt.Errorf("cpu: RUUSize = %d exceeds the %d-entry ready ring", c.RUUSize, readyRing)
	}
	return nil
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
	seq     uint64
	depA    uint64 // producer sequence numbers (0 = none)
	depB    uint64
	addr    memaddr.Addr
	readyAt uint64 // completion cycle; notIssued until issued
	// parked and nextParked thread the parked entries through the RUU
	// slots, each as slot+1 so that 0 ends a list: parked names the
	// first entry parked on this one, nextParked the entry after this
	// one on its producer's list. Derived state, not in State.
	parked, nextParked uint32
	cls                workload.Class
	issued             bool
}

// timedEntry is a sleeping entry whose producers have issued: it wakes
// at cycle at, when the last of them completes.
type timedEntry struct {
	at   uint64
	slot uint64
}

// shortWait is the longest wait, in cycles, for which a stuck entry
// stays active: issue visits it again rather than filing it asleep.
const shortWait = 2

// Core is one simulated out-of-order processor.
type Core struct {
	ID   int
	cfg  Config
	gen  *workload.Generator
	port Port
	bp   *bpred.Predictor

	// RUU ring buffer. head/tail are absolute instruction positions
	// (index = pos % RUUSize). The scan frontier, in State, is where a
	// scan of the RUU for unissued entries would start: every entry
	// before it is issued. A scan stops at the first entry it leaves
	// unissued, or after the Width-th issue, so the frontier is the
	// oldest unissued entry or, after a pass cut off by the width, the
	// position after its last issue if that is older. Issue keeps just
	// that position in scanAbs after a cut pass, notIssued after any
	// other cycle, and Snapshot reports min(scanAbs, oldest unissued).
	// That also holds for a scanAbs Restore took from a state, or one a
	// full scan keeps, since no unissued entry precedes either.
	ruu     []ruuEntry
	head    uint64
	tail    uint64
	scanAbs uint64
	lsqLen  int
	// headSlot and tailSlot are head and tail modulo RUUSize, advanced
	// with them so the hot paths index the ring without a division.
	// Derived state, set by Restore.
	headSlot, tailSlot uint64

	// Every unissued entry is active or asleep, and issue visits only
	// the active ones, oldest first (DESIGN.md §5). Dispatch makes an
	// entry active. A visit that finds it stuck files it by its
	// producers: parked on the list of one that has not issued
	// (ruuEntry.parked) until that producer issues, or, when they
	// complete more than shortWait cycles later, asleep in timed until
	// then. A memory op set aside while the MSHR file is full sleeps in
	// mshrWait until a miss completes. active, mshrWait and memSlots (the
	// slots holding a load or store) are bitmaps over the RUU slots. All
	// of it is derived state, sized by RUUSize in New and rebuilt by
	// Restore.
	active, mshrWait, memSlots []uint64
	mshrWaiting                bool         // mshrWait has a bit set
	timed                      []timedEntry // by wake cycle, latest first
	// sleepAt is the earliest cycle at which a sleeping entry may wake:
	// exact after wake drains the due ones, lowered as entries fall
	// asleep, and early (never late) once a miss retires.
	sleepAt uint64

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
	// its length is the MSHR occupancy. mshrFirst is the earliest of
	// them, or notIssued when there are none: derived state, so the file
	// is filtered only when a miss completes.
	mshr      []uint64
	mshrFirst uint64

	// wakeAt is the earliest cycle at which an issue pass could issue
	// anything: the next cycle after a pass that was cut by the width or
	// denied an entry a unit, the completion cycle of an active entry on
	// a short wait, or sleepAt. 0 forces a pass. Dispatch lowers it and
	// Restore clears it; it is derived state and not part of State.
	wakeAt uint64

	nextSeq uint64
	stats   Stats
}

// New builds a core over an instruction generator, a memory port, and a
// branch predictor (each core owns its own predictor).
func New(id int, cfg Config, gen *workload.Generator, port Port, bp *bpred.Predictor) *Core {
	cfg = cfg.withDefaults()
	words := (cfg.RUUSize + 63) / 64
	return &Core{
		ID:         id,
		cfg:        cfg,
		gen:        gen,
		port:       port,
		bp:         bp,
		ruu:        make([]ruuEntry, cfg.RUUSize),
		active:     make([]uint64, words),
		mshrWait:   make([]uint64, words),
		memSlots:   make([]uint64, words),
		timed:      make([]timedEntry, 0, cfg.RUUSize),
		readyBySeq: new([readyRing]uint64),
		fetchQ:     make([]workload.Instr, 0, cfg.FetchQueue),
		mshr:       make([]uint64, 0, cfg.MSHRs),
		mshrFirst:  notIssued,
		sleepAt:    notIssued,
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
// Without timing nothing reads an instruction's dependencies, so it
// takes the stream through the generator's NextUntimed: the same
// instructions and generator state as Next, without the producer
// distances.
//
// It touches only this core's own state (generator, predictor) and its
// port, so cores may warm concurrently when their ports keep the shared
// last level out of the way (hierarchy.Port.Defer).
func (c *Core) WarmFunctional(n uint64) {
	var ins workload.Instr
	for i := uint64(0); i < n; i++ {
		c.gen.NextUntimed(&ins)
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
	// Nothing issues in the window, so no pass in it is cut.
	c.scanAbs = notIssued
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

// retireMSHRs drops the misses that complete by cycle now. It filters
// the file only once now reaches its earliest completion.
func (c *Core) retireMSHRs(now uint64) {
	if now < c.mshrFirst {
		return
	}
	keep, first := c.mshr[:0], uint64(notIssued)
	for _, t := range c.mshr {
		if t > now {
			keep = append(keep, t)
			first = min(first, t)
		}
	}
	c.mshr, c.mshrFirst = keep, first
}

// issue runs the issue stage over the active entries, oldest first,
// which is the order a scan of the RUU from the scan frontier meets the
// unissued entries in, with the same resource accounting. Once the
// memory ports or the MSHR file run out, the younger memory ops are
// denied this pass unvisited. A pass also records in wakeAt the
// earliest cycle at which any entry could issue; until then, and unless
// dispatch adds an entry, every pass would issue nothing, so the pass is
// skipped (DESIGN.md §5).
func (c *Core) issue(now uint64) {
	// Retire completed MSHR entries. This runs every cycle, skipped pass
	// or not, so the MSHR slice always matches a full pass.
	c.retireMSHRs(now)
	c.scanAbs = notIssued
	if now < c.wakeAt {
		return
	}
	if now >= c.sleepAt {
		c.wakeSleepers(now)
	}
	// memOut is set once memory ops can no longer issue this pass,
	// portsOut if for want of a port.
	memOut, portsOut := false, false
	if len(c.mshr) >= c.cfg.MSHRs {
		c.blockMem()
		memOut = true
	}

	intALU, fpALU := c.cfg.IntALUs, c.cfg.FPALUs
	intMul, fpMul := c.cfg.IntMuls, c.cfg.FPMuls
	memPorts := c.cfg.MemPorts
	width, issued := c.cfg.Width, 0
	// wake is the earliest cycle an active stuck entry could issue.
	wake := uint64(notIssued)

	// The active entries lie in the slots [headSlot, size) and then, the
	// younger ones, in [0, headSlot). The pass walks the first range and
	// then the second a bitmap word w at a time; word holds the active
	// slots of w not yet visited, less the memory ops once they are out.
	size := uint64(c.cfg.RUUSize)
	end := size
	w := c.headSlot >> 6
	word := c.active[w] &^ (1<<(c.headSlot&63) - 1)
	if memOut {
		word &^= c.memSlots[w]
	}
	var last uint64 // the slot of the latest issue
	for issued < width {
		if word == 0 {
			if w++; w<<6 >= end {
				if end != size || c.headSlot == 0 {
					break
				}
				w, end = 0, c.headSlot
			}
			word = c.active[w]
			if memOut {
				word &^= c.memSlots[w]
			}
			continue
		}
		slot := w<<6 | uint64(bits.TrailingZeros64(word))
		if slot >= end {
			break
		}
		word &= word - 1
		e := &c.ruu[slot]
		a, b := c.producerReady(e.depA), c.producerReady(e.depB)
		if at := max(a, b); at > now {
			switch {
			case at == notIssued:
				// A restored state may name a pending producer outside
				// the window: the entry stays active, and every pass
				// reads that producer again.
				c.parkOnUnissued(slot, e, a, b)
			case at > now+shortWait:
				c.sleep(slot, at)
			default:
				wake = min(wake, at)
			}
			continue
		}
		// A denied entry stays active: it could issue next cycle.
		switch e.cls {
		case workload.IntALU, workload.Branch:
			if intALU == 0 {
				wake = now + 1
				continue
			}
			intALU--
			e.readyAt = now + uint64(c.cfg.IntALULat)
		case workload.IntMul:
			if intMul == 0 {
				wake = now + 1
				continue
			}
			intMul--
			e.readyAt = now + uint64(c.cfg.IntMulLat)
		case workload.FPALU:
			if fpALU == 0 {
				wake = now + 1
				continue
			}
			fpALU--
			e.readyAt = now + uint64(c.cfg.FPALULat)
		case workload.FPMul:
			if fpMul == 0 {
				wake = now + 1
				continue
			}
			fpMul--
			e.readyAt = now + uint64(c.cfg.FPMulLat)
		case workload.Load, workload.Store:
			memPorts--
			if e.cls == workload.Load {
				e.readyAt = c.port.ReadData(e.addr, now)
				if e.readyAt > now+missThreshold {
					c.mshr = append(c.mshr, e.readyAt)
					c.mshrFirst = min(c.mshrFirst, e.readyAt)
				}
			} else {
				// Write-buffer approximation: traffic charged
				// now, completion at L1 write latency.
				c.port.WriteData(e.addr, now)
				e.readyAt = now + 3
			}
		}
		c.active[w] &^= 1 << (slot & 63)
		e.issued = true
		c.readyBySeq[e.seq%uint64(len(c.readyBySeq))] = e.readyAt
		issued++
		last = slot
		// A resolving mispredicted branch releases dispatch after the
		// refill penalty.
		if c.pendingHoldSet && e.seq == c.pendingHoldSeq {
			c.dispatchHold = e.readyAt + uint64(c.cfg.MispredictPenalty)
			c.pendingHoldSet = false
		}
		if d := e.parked; d != 0 {
			e.parked = 0
			at, issuable := c.unpark(d, e.seq, now)
			wake = min(wake, at)
			if issuable {
				// An entry that woke issuable is younger: visit it
				// this pass.
				word = c.active[w] &^ (2<<(slot&63) - 1)
				if memOut {
					word &^= c.memSlots[w]
				}
			}
		}
		if !memOut && (memPorts == 0 || len(c.mshr) >= c.cfg.MSHRs) {
			// Every younger memory op is denied this pass.
			memOut = true
			word &^= c.memSlots[w]
			if len(c.mshr) >= c.cfg.MSHRs {
				c.blockMem()
			} else {
				portsOut = true
			}
		}
	}
	if issued == width {
		// The pass left entries unvisited: look again next cycle.
		c.scanAbs = c.posOf(last) + 1
		wake = now + 1
	} else if portsOut && c.activeMem() {
		// So did it memory ops, for want of a port.
		wake = now + 1
	}
	c.wakeAt = min(wake, c.sleepAt)
}

// wakeSleepers activates the sleeping entries due by cycle now: the
// timed ones whose producers complete by now, and the MSHR-blocked ones
// once the file has room. It sets sleepAt to the earliest wake left.
func (c *Core) wakeSleepers(now uint64) {
	n := len(c.timed)
	for ; n > 0 && c.timed[n-1].at <= now; n-- {
		c.activate(c.timed[n-1].slot)
	}
	c.timed = c.timed[:n]
	if c.mshrWaiting && len(c.mshr) < c.cfg.MSHRs {
		for i, x := range c.mshrWait {
			c.active[i] |= x
			c.mshrWait[i] = 0
		}
		c.mshrWaiting = false
	}
	c.sleepAt = notIssued
	if n > 0 {
		c.sleepAt = c.timed[n-1].at
	}
	if c.mshrWaiting {
		c.sleepAt = min(c.sleepAt, c.mshrFirst)
	}
}

// blockMem sets every active memory op aside in mshrWait: the MSHR file
// is full, and no slot frees before its first miss completes.
func (c *Core) blockMem() {
	for i, m := range c.memSlots {
		if x := c.active[i] & m; x != 0 {
			c.active[i] &^= x
			c.mshrWait[i] |= x
			c.mshrWaiting = true
		}
	}
	if c.mshrWaiting {
		c.sleepAt = min(c.sleepAt, c.mshrFirst)
	}
}

// activeMem reports whether any active entry is a memory op.
func (c *Core) activeMem() bool {
	for i, a := range c.active {
		if a&c.memSlots[i] != 0 {
			return true
		}
	}
	return false
}

// sleep files the entry in slot asleep in timed until cycle at.
func (c *Core) sleep(slot, at uint64) {
	c.active[slot>>6] &^= 1 << (slot & 63)
	c.sleepAt = min(c.sleepAt, at)
	// Insert in order; most entries wake soonest and go at the end.
	i := len(c.timed)
	c.timed = append(c.timed, timedEntry{})
	for ; i > 0 && c.timed[i-1].at < at; i-- {
		c.timed[i] = c.timed[i-1]
	}
	c.timed[i] = timedEntry{at: at, slot: slot}
}

// parkOnUnissued parks the entry e in slot on one of its producers that
// has not issued (a or b is notIssued), and reports whether it could:
// only an unissued entry in the window parks its dependents. Any other
// producer (named by a restored state outside the window) counts by its
// readyBySeq slot alone, as producerReady reads it.
func (c *Core) parkOnUnissued(slot uint64, e *ruuEntry, a, b uint64) bool {
	return (a == notIssued && c.park(slot, e.depA)) || (b == notIssued && c.park(slot, e.depB))
}

// park puts the entry in slot on the list of its producer dep if dep
// names an unissued entry in the window, and reports whether it did.
func (c *Core) park(slot, dep uint64) bool {
	// dep-1 is the producer's position; dep 0 wraps out of the window.
	if dep-1-c.head >= c.tail-c.head {
		return false
	}
	p := &c.ruu[c.slotOf(dep-1)]
	if p.issued {
		return false
	}
	c.active[slot>>6] &^= 1 << (slot & 63)
	c.ruu[slot].nextParked = p.parked
	p.parked = uint32(slot) + 1
	return true
}

// unpark files the entries of the parked list starting at slot d-1,
// whose producer seq issued at cycle now: parked again on another
// unissued producer, active if their producers complete within
// shortWait cycles, else asleep until they do. It returns the earliest
// cycle an entry it made active could issue, and whether one can issue
// now. Such an entry is younger than the producer, so this pass can
// still visit it, except in a restored state that names a younger
// producer: the pass has gone by that one, so it counts from now+1.
func (c *Core) unpark(d uint32, seq, now uint64) (wake uint64, issuable bool) {
	wake = notIssued
	for d != 0 {
		slot := uint64(d - 1)
		e := &c.ruu[slot]
		d = e.nextParked
		a, b := c.producerReady(e.depA), c.producerReady(e.depB)
		switch at := max(a, b); {
		case at == notIssued:
			if !c.parkOnUnissued(slot, e, a, b) {
				c.activate(slot) // a pending producer outside the window
			}
		case at > now+shortWait:
			c.sleep(slot, at)
		default:
			c.activate(slot)
			if e.seq < seq {
				at = max(at, now+1)
			}
			wake = min(wake, at)
			issuable = issuable || at <= now
		}
	}
	return wake, issuable
}

func (c *Core) activate(slot uint64) { c.active[slot>>6] |= 1 << (slot & 63) }

// slotOf returns the RUU slot of position pos in [head, head+RUUSize).
func (c *Core) slotOf(pos uint64) uint64 {
	slot := c.headSlot + (pos - c.head)
	if size := uint64(c.cfg.RUUSize); slot >= size {
		slot -= size
	}
	return slot
}

// posOf returns the position of the entry in slot.
func (c *Core) posOf(slot uint64) uint64 {
	if slot >= c.headSlot {
		return c.head + (slot - c.headSlot)
	}
	return c.head + uint64(c.cfg.RUUSize) - c.headSlot + slot
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
		// The entry is active, and the pass that visits it files it
		// if it is stuck.
		w, bit := c.tailSlot>>6, uint64(1)<<(c.tailSlot&63)
		c.ruu[c.tailSlot] = e
		c.active[w] |= bit
		if isMem {
			c.memSlots[w] |= bit
		} else {
			c.memSlots[w] &^= bit
		}
		c.tail++
		c.tailSlot = c.nextSlot(c.tailSlot)
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
		// The next pass, at now+1, visits the new entries.
		c.wakeAt = min(c.wakeAt, now+1)
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
