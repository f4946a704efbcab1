package cpu

import (
	"fmt"

	"nucasim/internal/bpred"
	"nucasim/internal/memaddr"
	"nucasim/internal/workload"
)

// RUUEntryState mirrors ruuEntry with exported fields for serialization.
type RUUEntryState struct {
	Cls     workload.Class
	Seq     uint64
	DepA    uint64
	DepB    uint64
	Addr    memaddr.Addr
	ReadyAt uint64
	Issued  bool
}

// State is the complete mutable state of a Core, including its embedded
// instruction generator and branch predictor, so a checkpointed run can
// resume bit-identically. Restore expects a core built with the same
// Config, generator parameters and predictor configuration.
type State struct {
	RUU     []RUUEntryState // whole ring buffer, slot order preserved
	Head    uint64
	Tail    uint64
	ScanAbs uint64
	LSQLen  int

	FetchQ         []workload.Instr
	FetchReady     uint64
	LastFetchBlock memaddr.Addr

	DispatchHold   uint64
	PendingHoldSeq uint64
	PendingHoldSet bool

	ReadyBySeq []uint64
	MSHR       []uint64
	NextSeq    uint64
	Stats      Stats

	Gen  workload.GeneratorState
	Pred bpred.State
}

// Snapshot captures the core's full mutable state.
func (c *Core) Snapshot() State {
	s := State{
		RUU:            make([]RUUEntryState, len(c.ruu)),
		Head:           c.head,
		Tail:           c.tail,
		ScanAbs:        c.scanFrontier(),
		LSQLen:         c.lsqLen,
		FetchQ:         append([]workload.Instr(nil), c.fetchQ...),
		FetchReady:     c.fetchReady,
		LastFetchBlock: c.lastFetchBlock,
		DispatchHold:   c.dispatchHold,
		PendingHoldSeq: c.pendingHoldSeq,
		PendingHoldSet: c.pendingHoldSet,
		ReadyBySeq:     append([]uint64(nil), c.readyBySeq[:]...),
		MSHR:           append([]uint64(nil), c.mshr...),
		NextSeq:        c.nextSeq,
		Stats:          c.stats,
		Gen:            c.gen.State(),
		Pred:           c.bp.Snapshot(),
	}
	for i, e := range c.ruu {
		s.RUU[i] = RUUEntryState{
			Cls: e.cls, Seq: e.seq, DepA: e.depA, DepB: e.depB,
			Addr: e.addr, ReadyAt: e.readyAt, Issued: e.issued,
		}
	}
	return s
}

// Restore loads a snapshot taken from an identically configured core.
func (c *Core) Restore(s State) error {
	if len(s.RUU) != len(c.ruu) {
		return fmt.Errorf("cpu: state RUU has %d slots, core has %d", len(s.RUU), len(c.ruu))
	}
	if len(s.ReadyBySeq) != len(c.readyBySeq) {
		return fmt.Errorf("cpu: state readyBySeq has %d slots, core has %d", len(s.ReadyBySeq), len(c.readyBySeq))
	}
	if len(s.FetchQ) > c.cfg.FetchQueue {
		return fmt.Errorf("cpu: state fetch queue holds %d > %d entries", len(s.FetchQ), c.cfg.FetchQueue)
	}
	if s.Head > s.Tail || s.Tail-s.Head > uint64(len(c.ruu)) {
		return fmt.Errorf("cpu: state RUU window [%d, %d) does not fit %d slots", s.Head, s.Tail, len(c.ruu))
	}
	if s.ScanAbs > s.Tail {
		return fmt.Errorf("cpu: state scan frontier %d is past the RUU tail %d", s.ScanAbs, s.Tail)
	}
	if s.LSQLen < 0 || s.LSQLen > c.cfg.LSQSize {
		return fmt.Errorf("cpu: state LSQ holds %d entries, outside [0, %d]", s.LSQLen, c.cfg.LSQSize)
	}
	if len(s.MSHR) > c.cfg.MSHRs {
		return fmt.Errorf("cpu: state holds %d > %d outstanding misses", len(s.MSHR), c.cfg.MSHRs)
	}
	// Dispatch numbers instruction pos (from 0) as seq pos+1, and the
	// producer lookups (readyBySeq) and the mispredict hold
	// (pendingHoldSeq) rely on it.
	if s.NextSeq != s.Tail+1 {
		return fmt.Errorf("cpu: state NextSeq %d is not the RUU tail %d + 1", s.NextSeq, s.Tail)
	}
	for pos := s.Head; pos < s.Tail; pos++ {
		e := &s.RUU[pos%uint64(len(s.RUU))]
		if e.Seq != pos+1 {
			return fmt.Errorf("cpu: state RUU entry at position %d has Seq %d, want %d", pos, e.Seq, pos+1)
		}
		// Issue only visits entries from the scan frontier on, so an
		// unissued one behind it would never issue and commit would
		// stall on it.
		if pos < s.ScanAbs && !e.Issued {
			return fmt.Errorf("cpu: state RUU entry at position %d is unissued behind the scan frontier ScanAbs %d", pos, s.ScanAbs)
		}
	}
	if err := c.gen.Restore(s.Gen); err != nil {
		return err
	}
	if err := c.bp.Restore(s.Pred); err != nil {
		return err
	}
	for i, e := range s.RUU {
		c.ruu[i] = ruuEntry{
			cls: e.Cls, seq: e.Seq, depA: e.DepA, depB: e.DepB,
			addr: e.Addr, readyAt: e.ReadyAt, issued: e.Issued,
		}
	}
	c.head = s.Head
	c.tail = s.Tail
	c.headSlot = s.Head % uint64(len(c.ruu))
	c.tailSlot = s.Tail % uint64(len(c.ruu))
	c.scanAbs = s.ScanAbs
	c.lsqLen = s.LSQLen
	c.fetchQ = append(c.fetchQ[:0], s.FetchQ...)
	c.fetchReady = s.FetchReady
	c.lastFetchBlock = s.LastFetchBlock
	c.dispatchHold = s.DispatchHold
	c.pendingHoldSeq = s.PendingHoldSeq
	c.pendingHoldSet = s.PendingHoldSet
	copy(c.readyBySeq[:], s.ReadyBySeq)
	c.mshr = append(c.mshr[:0], s.MSHR...)
	c.mshrFirst = notIssued
	for _, t := range c.mshr {
		c.mshrFirst = min(c.mshrFirst, t)
	}
	c.nextSeq = s.NextSeq
	c.stats = s.Stats
	// Every unissued entry starts active; the first pass, which nothing
	// skips, sends the stuck ones back to sleep.
	clear(c.active)
	clear(c.mshrWait)
	clear(c.memSlots)
	c.mshrWaiting, c.sleepAt = false, notIssued
	c.timed = c.timed[:0]
	for pos, slot := c.head, c.headSlot; pos < c.tail; pos, slot = pos+1, c.nextSlot(slot) {
		e := &c.ruu[slot]
		if e.cls == workload.Load || e.cls == workload.Store {
			c.memSlots[slot>>6] |= 1 << (slot & 63)
		}
		if !e.issued {
			c.activate(slot)
		}
	}
	c.wakeAt = 0
	return nil
}

// scanFrontier returns the scan frontier: the oldest unissued entry (tail
// when every entry has issued), or scanAbs if that is older.
func (c *Core) scanFrontier() uint64 {
	pos, slot := c.head, c.headSlot
	for pos < c.tail && pos < c.scanAbs && c.ruu[slot].issued {
		pos, slot = pos+1, c.nextSlot(slot)
	}
	return min(pos, c.scanAbs)
}
