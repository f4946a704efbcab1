// Package core implements the paper's contribution: the adaptive
// shared/private NUCA last-level cache organization (Section 2).
//
// Each core owns a local L3 cache (Table 1: 1 MB, 4-way). The same-indexed
// sets of all local caches form one "global set" of cores×ways slots. Each
// global set is split into per-core private partitions (LRU stacks over
// slots in the owner's local cache) and one shared partition (an LRU stack
// spanning the remaining slots of every local cache).
//
// The sharing engine adapts a per-core occupancy limit, maxBlocksInSet
// (Figure 4(d)), to minimize total misses:
//
//   - a shadow tag per (set, core) records the last block evicted on the
//     core's behalf; a miss matching it is a "hit if one way larger"
//     (gain of growing; Figure 4(b,c));
//   - a hit in the LRU block of a core's private partition is a miss if
//     one way smaller (loss of shrinking; after Suh et al.);
//   - every RepartitionPeriod L3 misses, if the best gain exceeds the
//     smallest loss, one block per set moves from loser to gainer.
//
// Replacement follows Section 2.4: fills enter the requester's private
// partition as MRU; the private LRU block is demoted into the shared
// partition; the shared victim is chosen by Algorithm 1 (the LRU-most
// shared block whose owner exceeds its limit, else the global shared LRU).
// A hit in the shared partition swaps the block with the requester's
// private LRU (Section 2.3). Repartitioning is lazy (Section 2.5): only
// the limits change; blocks drain out through normal replacement.
//
// # Data layout
//
// All resident blocks live in one preallocated flat arena of 16-byte
// nodes: each global set owns a fixed span of totalWays+1 slots (the
// spare slot lets a fill complete before Algorithm 1 picks its victim,
// keeping the fill→demote→evict event order). The LRU stacks — one per
// private partition plus the shared partition — are intrusive doubly
// linked lists threaded through the nodes via set-relative int16 slot
// indices, so a hit promotion, a swap, a demotion, or an eviction is an
// O(1) pointer splice with zero allocations.
//
// Per-(set,core) metadata is split by temperature. The hot mruEntry
// (16 bytes: MRU tag mirror, head, tail, length) makes the dominant
// access — a hit on the block most recently touched — decide on one
// header line without loading any node; with four cores a whole set's
// entries share a single 64-byte line. The cold coreCnt (4 bytes) holds
// the incrementally maintained occupancy index (blocks owned, blocks
// physically homed) that Algorithm 1, the home rebalancer, and the epoch
// observer read instead of rescanning the set; RecountSetInto re-derives it
// from the lists so checkers can prove the two views never diverge
// (invariant I9).
//
// Interpretation choices the paper leaves implicit are documented on
// Config.
package core

import (
	"fmt"
	"math/bits"
	"slices"

	"nucasim/internal/cache"
	"nucasim/internal/dram"
	"nucasim/internal/llc"
	"nucasim/internal/memaddr"
	"nucasim/internal/telemetry"
)

// Config parameterizes the adaptive organization. Zero fields select the
// paper's baseline (Table 1 and Section 2.1).
//
// Interpretation notes, where the paper is implicit:
//
//   - The initial partitioning is "75 % private, 25 % shared", so the
//     initial maxBlocksInSet is 3 for a 4-way local cache, and the private
//     partition target is min(maxBlocksInSet, local ways). The per-core
//     limits therefore sum to 12, guaranteeing the shared pool holds at
//     least one slot per core per set — the paper's "minimum of 1 cache
//     block per set in the shared block partition".
//   - A hit on a shared-partition block that is physically resident in the
//     requester's own local cache costs the local latency (14 cycles), not
//     the neighbor latency: latency follows physical distance.
//   - LRU hits are counted in every set; shadow-tag hits are multiplied by
//     the sampling factor before the comparison (Section 4.6: "the numbers
//     are normalized").
type Config struct {
	Cores             int  // default 4
	BytesPerCore      int  // default 1 MB
	LocalWays         int  // default 4
	RepartitionPeriod int  // default 2000 L3 misses
	ShadowSampleShift uint // 0 = shadow tags in all sets; 4 = 1/16 of sets (§4.6)
	Latencies         llc.Latencies

	// Ablation knobs (not part of the paper's design; used to quantify
	// the mechanisms' individual contributions):
	//
	// DisableProtection makes Algorithm 1 always evict the global shared
	// LRU, ignoring the per-owner limits — sharing becomes uncontrolled,
	// like the spill-based schemes the paper criticizes.
	DisableProtection bool
	// DisableAdaptation freezes the controller: the initial 75 %/25 %
	// partitioning stays fixed (a static partitioned NUCA).
	DisableAdaptation bool
}

func (c Config) withDefaults() Config {
	if c.Cores == 0 {
		c.Cores = 4
	}
	if c.BytesPerCore == 0 {
		c.BytesPerCore = 1 << 20
	}
	if c.LocalWays == 0 {
		c.LocalWays = 4
	}
	if c.RepartitionPeriod == 0 {
		c.RepartitionPeriod = 2000
	}
	if c.Latencies == (llc.Latencies{}) {
		c.Latencies = llc.DefaultLatencies()
	}
	return c
}

// maxCores bounds Config.Cores so a block's owner and home fit the packed
// int8 node fields. The paper tops out at 16 cores (§4.5).
const maxCores = 127

// nilSlot terminates intrusive lists. Slot indices are relative to the
// owning set's arena span.
const nilSlot = int16(-1)

// blockNode is one arena slot: a resident block's metadata plus the
// intrusive links of whichever LRU list (private, shared, or free) it is
// currently threaded on. Packed to 16 bytes so a stack walk touches the
// fewest possible cache lines.
type blockNode struct {
	tag        uint64
	prev, next int16 // set-relative slot indices (nilSlot = end)
	owner      int8  // core that fetched the block (Figure 4(a))
	home       int8  // local cache physically holding the block
	dirty      bool
}

// mruEntry is the hot per-(set,core) header of the private LRU stack.
// tag mirrors the MRU node's tag whenever head != nilSlot, so the
// dominant hit resolves against this 16-byte entry alone — with four
// cores, one 64-byte line covers a whole set.
type mruEntry struct {
	tag        uint64
	head, tail int16 // MRU→LRU endpoints (nilSlot when empty)
	privLen    int16
	_pad/* align 16 */ int16
}

// coreCnt is the cold per-(set,core) half of the incremental occupancy
// index, read off the hit fast path (Algorithm 1, home rebalance, epoch
// observation).
type coreCnt struct {
	owner int16 // blocks owned in the set (private + shared) — Algorithm 1's input
	home  int16 // blocks physically resident in this core's local cache
}

// setHdr is the per-set header: the shared LRU stack's endpoints, the
// free list of unused arena slots, and the set's resident-block total.
type setHdr struct {
	sharedHead, sharedTail int16
	sharedLen              int16
	freeHead               int16 // singly linked through blockNode.next
	total                  int16 // resident blocks (private + shared)
}

// Adaptive is the paper's organization. It implements llc.Organization.
type Adaptive struct {
	cfg       Config
	geom      memaddr.Geometry // per-local-cache geometry
	totalWays int

	// setMask and tagShift split an address into set and tag, as geom
	// does. The block paths read these copies: a call through the geom
	// value copies all of geom first.
	setMask  uint64
	tagShift uint

	// Flat block arena: set i owns nodes[i*slotsPerSet : (i+1)*slotsPerSet],
	// mru/cnts[i*Cores : (i+1)*Cores], and setHdrs[i]. slotsPerSet is
	// totalWays+1: the spare slot lets a fill land before Algorithm 1
	// evicts, so the event order (fill, demotions, evictions) matches the
	// trace schema.
	slotsPerSet int
	nodes       []blockNode
	mru         []mruEntry
	cnts        []coreCnt
	setHdrs     []setHdr

	mem *dram.Memory

	maxBlocks []int // Figure 4(d): per-core occupancy limit per set

	shadow     *cache.ShadowTagTable
	shadowHits []uint64 // Figure 4(c) "hits in the shadow tags"
	lruHits    []uint64 // Figure 4(c) "hits in the LRU blocks"

	missesSinceRepart int
	perCore           []llc.AccessStats

	// sinceLimitChange counts consecutive evaluations without a limit
	// transfer; the epoch observer publishes it so latched partitions
	// (limits frozen for the rest of a run) are visible in the series.
	sinceLimitChange uint64

	// setStats aggregates sharing-engine activity per global set (fills,
	// swaps, demotions, evictions, steals). Always maintained: the
	// increments ride event paths that already do pointer surgery, so the
	// cost is noise. aggStats is the same information summed over all
	// sets, maintained incrementally so the epoch observer never scans;
	// lastSetAgg is its value at the previous epoch boundary, for
	// per-epoch deltas.
	setStats   []llc.SetStats
	aggStats   llc.SetStats
	lastSetAgg llc.SetStats

	// Whole-cache resident-block totals, maintained incrementally for the
	// epoch observer (the other half of killing the per-epoch full scan).
	totalPriv   int
	totalShared int

	// Repartitions counts limit changes actually applied.
	Repartitions uint64
	// Evaluations counts repartitioning decisions (every period).
	Evaluations uint64
	// OnRepartition, if set, observes every evaluation: the limits after
	// the decision and whether a transfer happened. Used by the
	// partition-dynamics example and tests.
	OnRepartition func(maxBlocks []int, transferred bool)

	// Telemetry plumbing (see SetTelemetry). tel is checked only on the
	// cold repartition path; trace and the recorders are nil-safe, so the
	// hot access path pays one nil comparison each when disabled.
	//
	// The named counters are NOT incremented on the access path: the hot
	// path already maintains aggStats, and flushTelemetry publishes the
	// delta since lastCtrFlush into the counters at every epoch boundary
	// (and on FlushTelemetry, so results and checkpoints see current
	// values). That turns four per-event pointer increments into one
	// subtraction per epoch.
	tel        *telemetry.Telemetry
	trace      *telemetry.Tracer
	ctrSwap    *telemetry.Counter
	ctrMigrate *telemetry.Counter
	ctrDemote  *telemetry.Counter
	ctrEvict   *telemetry.Counter
	epochStats []llc.AccessStats // per-core snapshot at the last epoch boundary

	// lat streams per-core access latency, split by outcome, into the
	// registry histograms "llc.c<i>.latency.{local_hit,remote_hit,miss}".
	lat          *llc.LatencyRecorder
	lastCtrFlush llc.SetStats // aggStats at the last counter flush
	// epochLatBase is the merged latency-histogram total at the previous
	// epoch boundary; observeEpoch subtracts it to publish per-epoch
	// latency percentiles in the epoch samples.
	epochLatBase telemetry.Histogram

	// spans, when set, records one wall-clock span per repartition
	// evaluation (the §2.1 decision is the engine's only cold path worth
	// timing). Wall-clock only: never touches partitioning state.
	spans      *telemetry.SpanRecorder
	spanParent telemetry.SpanID
}

// NewAdaptive builds the organization over the given memory model.
func NewAdaptive(cfg Config, mem *dram.Memory) *Adaptive {
	cfg = cfg.withDefaults()
	if cfg.Cores < 2 {
		panic("core: adaptive scheme needs at least 2 cores")
	}
	if cfg.Cores > maxCores {
		panic("core: adaptive scheme supports at most 127 cores")
	}
	geom := memaddr.NewGeometry(cfg.BytesPerCore, cfg.LocalWays)
	totalWays := cfg.LocalWays * cfg.Cores
	if totalWays+1 > 1<<15-1 {
		panic("core: global set exceeds the packed slot-index range")
	}
	a := &Adaptive{
		cfg:         cfg,
		geom:        geom,
		totalWays:   totalWays,
		setMask:     uint64(geom.Sets - 1),
		tagShift:    memaddr.BlockBits + uint(bits.TrailingZeros(uint(geom.Sets))),
		slotsPerSet: totalWays + 1,
		nodes:       make([]blockNode, geom.Sets*(totalWays+1)),
		mru:         make([]mruEntry, geom.Sets*cfg.Cores),
		cnts:        make([]coreCnt, geom.Sets*cfg.Cores),
		setHdrs:     make([]setHdr, geom.Sets),
		mem:         mem,
		maxBlocks:   make([]int, cfg.Cores),
		shadow:      cache.NewShadowTagTable(geom.Sets, cfg.Cores, cfg.ShadowSampleShift),
		shadowHits:  make([]uint64, cfg.Cores),
		lruHits:     make([]uint64, cfg.Cores),
		perCore:     make([]llc.AccessStats, cfg.Cores),
		setStats:    make([]llc.SetStats, geom.Sets),
	}
	a.buildArena(func() []BlockState { return nil })
	initial := cfg.LocalWays * 3 / 4 // 75 % private (Section 2.1)
	if initial < 1 {
		initial = 1
	}
	for c := range a.maxBlocks {
		a.maxBlocks[c] = initial
	}
	return a
}

// buildArena lays every set out in one pass from validated stacks that
// next yields in State.Blocks order (all empty when it yields nil). Each
// stack takes consecutive slots, the rest go on the set's free list, and
// the occupancy index and totals are counted along the way.
func (a *Adaptive) buildArena(next func() []BlockState) {
	cores := a.cfg.Cores
	a.totalPriv, a.totalShared = 0, 0
	for i := range a.setHdrs {
		setBase, base := i*a.slotsPerSet, i*cores
		clear(a.cnts[base : base+cores])
		slot := 0
		for c := 0; c < cores; c++ {
			priv := next()
			m := &a.mru[base+c]
			*m = mruEntry{privLen: int16(len(priv))}
			m.head, m.tail = a.linkStack(setBase, base, slot, priv)
			if len(priv) > 0 {
				m.tag = priv[0].Tag
			}
			slot += len(priv)
		}
		a.totalPriv += slot
		shared := next()
		sh := &a.setHdrs[i]
		*sh = setHdr{sharedLen: int16(len(shared)), freeHead: nilSlot}
		sh.sharedHead, sh.sharedTail = a.linkStack(setBase, base, slot, shared)
		slot += len(shared)
		a.totalShared += len(shared)
		sh.total = int16(slot)
		for w := a.slotsPerSet - 1; w >= slot; w-- {
			a.nodes[setBase+w] = blockNode{prev: nilSlot, next: sh.freeHead}
			sh.freeHead = int16(w)
		}
	}
}

// linkStack threads stack MRU→LRU through consecutive slots of the set
// at setBase, from slot on, counts its blocks in the set's occupancy
// index (base is the set's first core header), and returns the list's
// endpoints.
func (a *Adaptive) linkStack(setBase, base, slot int, stack []BlockState) (head, tail int16) {
	if len(stack) == 0 {
		return nilSlot, nilSlot
	}
	for j, b := range stack {
		n := int16(slot + j)
		a.nodes[setBase+int(n)] = blockNode{tag: b.Tag, owner: b.Owner, home: b.Home, dirty: b.Dirty, prev: n - 1, next: n + 1}
		a.cnts[base+int(b.Owner)].owner++
		a.cnts[base+int(b.Home)].home++
	}
	head, tail = int16(slot), int16(slot+len(stack)-1)
	a.nodes[setBase+int(head)].prev = nilSlot
	a.nodes[setBase+int(tail)].next = nilSlot
	return head, tail
}

// allocNode takes a free slot from the set; freeNode returns one. Both
// maintain the set's resident total.
func (a *Adaptive) allocNode(setBase int, sh *setHdr) int16 {
	n := sh.freeHead
	if n == nilSlot {
		panic("core: arena set exhausted — invariant broken")
	}
	sh.freeHead = a.nodes[setBase+int(n)].next
	sh.total++
	return n
}

func (a *Adaptive) freeNode(setBase int, sh *setHdr, n int16) {
	a.nodes[setBase+int(n)] = blockNode{prev: nilSlot, next: sh.freeHead}
	sh.freeHead = n
	sh.total--
}

// privPushFront / privUnlink / privMoveToFront are the private-stack
// splices; shared* are their shared-stack twins. All are O(1). setBase
// is the set's first arena slot (setIdx*slotsPerSet).
func (a *Adaptive) privPushFront(setBase int, m *mruEntry, n int16) {
	nd := &a.nodes[setBase+int(n)]
	nd.prev = nilSlot
	nd.next = m.head
	if m.head != nilSlot {
		a.nodes[setBase+int(m.head)].prev = n
	} else {
		m.tail = n
	}
	m.head = n
	m.tag = nd.tag
	m.privLen++
}

func (a *Adaptive) privUnlink(setBase int, m *mruEntry, n int16) {
	nd := &a.nodes[setBase+int(n)]
	if nd.prev != nilSlot {
		a.nodes[setBase+int(nd.prev)].next = nd.next
	} else {
		m.head = nd.next
		if nd.next != nilSlot {
			m.tag = a.nodes[setBase+int(nd.next)].tag
		}
	}
	if nd.next != nilSlot {
		a.nodes[setBase+int(nd.next)].prev = nd.prev
	} else {
		m.tail = nd.prev
	}
	m.privLen--
}

// privMoveToFront promotes node n to MRU. Caller guarantees n != m.head.
func (a *Adaptive) privMoveToFront(setBase int, m *mruEntry, n int16) {
	nd := &a.nodes[setBase+int(n)]
	a.nodes[setBase+int(nd.prev)].next = nd.next // nd.prev != nilSlot: n is not head
	if nd.next != nilSlot {
		a.nodes[setBase+int(nd.next)].prev = nd.prev
	} else {
		m.tail = nd.prev
	}
	nd.prev = nilSlot
	nd.next = m.head
	a.nodes[setBase+int(m.head)].prev = n
	m.head = n
	m.tag = nd.tag
}

func (a *Adaptive) sharedPushFront(setBase int, sh *setHdr, n int16) {
	nd := &a.nodes[setBase+int(n)]
	nd.prev = nilSlot
	nd.next = sh.sharedHead
	if sh.sharedHead != nilSlot {
		a.nodes[setBase+int(sh.sharedHead)].prev = n
	} else {
		sh.sharedTail = n
	}
	sh.sharedHead = n
	sh.sharedLen++
}

func (a *Adaptive) sharedUnlink(setBase int, sh *setHdr, n int16) {
	nd := &a.nodes[setBase+int(n)]
	if nd.prev != nilSlot {
		a.nodes[setBase+int(nd.prev)].next = nd.next
	} else {
		sh.sharedHead = nd.next
	}
	if nd.next != nilSlot {
		a.nodes[setBase+int(nd.next)].prev = nd.prev
	} else {
		sh.sharedTail = nd.prev
	}
	sh.sharedLen--
}

// Name implements llc.Organization.
func (a *Adaptive) Name() string { return "adaptive" }

// SetTelemetry attaches a telemetry instance: every repartitioning
// evaluation is sampled into t's epoch ring, sharing-engine events go to
// t's tracer (if configured), and the named counters
// adaptive.shared_swaps / neighbor_migrations / demotions / evictions
// are registered. A nil t detaches and restores the uninstrumented hot
// path. The controller runs during functional warmup too, so epochs and
// events cover warmup unless the caller attaches telemetry afterwards.
func (a *Adaptive) SetTelemetry(t *telemetry.Telemetry) {
	a.tel = t
	if t == nil {
		a.trace = nil
		a.ctrSwap, a.ctrMigrate, a.ctrDemote, a.ctrEvict = nil, nil, nil, nil
		a.epochStats = nil
		a.lat = nil
		a.lastCtrFlush = llc.SetStats{}
		a.epochLatBase = telemetry.Histogram{}
		return
	}
	a.trace = t.Trace
	a.ctrSwap = t.Registry.Counter("adaptive.shared_swaps")
	a.ctrMigrate = t.Registry.Counter("adaptive.neighbor_migrations")
	a.ctrDemote = t.Registry.Counter("adaptive.demotions")
	a.ctrEvict = t.Registry.Counter("adaptive.evictions")
	a.lat = llc.NewLatencyRecorder(&t.Registry, "llc", a.cfg.Cores)
	// Counters report activity from attach onward: baseline the flush at
	// the current aggregates so pre-attach events are not replayed into
	// them, and baseline the epoch-latency delta at whatever the registry
	// histograms already hold (restored checkpoints arrive non-empty).
	a.lastCtrFlush = a.aggStats
	a.epochLatBase = telemetry.Histogram{}
	a.lat.MergeInto(&a.epochLatBase)
	a.epochStats = make([]llc.AccessStats, a.cfg.Cores)
	copy(a.epochStats, a.perCore)
}

// flushTelemetry publishes the sharing-engine activity accumulated in
// aggStats since the last flush into the named registry counters. Called
// at every repartition (before the epoch observer reads the counters'
// world) and from FlushTelemetry.
func (a *Adaptive) flushTelemetry() {
	if a.tel == nil {
		return
	}
	d := a.aggStats
	a.ctrSwap.Add(d.Swaps - a.lastCtrFlush.Swaps)
	a.ctrMigrate.Add(d.Migrations - a.lastCtrFlush.Migrations)
	a.ctrDemote.Add(d.Demotions - a.lastCtrFlush.Demotions)
	a.ctrEvict.Add(d.Evictions - a.lastCtrFlush.Evictions)
	a.lastCtrFlush = d
}

// FlushTelemetry forces the epoch-deferred counter flush so the registry
// is current between epoch boundaries. The simulation driver calls it
// before building results and before capturing a checkpoint.
func (a *Adaptive) FlushTelemetry() { a.flushTelemetry() }

// Telemetry returns the attached instance (nil when disabled).
func (a *Adaptive) Telemetry() *telemetry.Telemetry { return a.tel }

// SetSpans attaches a wall-clock span recorder: every repartition
// evaluation records one "adaptive.repartition" span under parent. A
// nil rec detaches. The spans observe only wall time — simulated state
// and the epoch series are byte-identical with or without them.
func (a *Adaptive) SetSpans(rec *telemetry.SpanRecorder, parent telemetry.SpanID) {
	a.spans = rec
	a.spanParent = parent
}

func (a *Adaptive) setOf(addr memaddr.Addr) int {
	return int(uint64(addr) >> memaddr.BlockBits & a.setMask)
}

func (a *Adaptive) tagOf(addr memaddr.Addr) uint64 { return uint64(addr) >> a.tagShift }

// privTarget is the current private-partition size for a core: the
// occupancy limit capped by the local associativity (Section 2.2).
func (a *Adaptive) privTarget(core int) int {
	t := a.maxBlocks[core]
	if t > a.cfg.LocalWays {
		t = a.cfg.LocalWays
	}
	if t < 1 {
		t = 1
	}
	return t
}

// MaxBlocks returns a copy of the current per-core limits (Figure 4(d)).
func (a *Adaptive) MaxBlocks() []int {
	out := make([]int, len(a.maxBlocks))
	copy(out, a.maxBlocks)
	return out
}

// Access implements llc.Organization.
func (a *Adaptive) Access(coreID int, addr memaddr.Addr, write bool, now uint64) (uint64, bool) {
	st := &a.perCore[coreID]
	st.Accesses++
	setIdx, tag := a.setOf(addr), a.tagOf(addr)
	base := setIdx * a.cfg.Cores
	setBase := setIdx * a.slotsPerSet

	// Phase 1: the requester's private partition (Section 2, "two phase
	// process"). The MRU position hits first and overwhelmingly most
	// often; its tag is mirrored in the 16-byte header, so the common
	// case decides on the header's cache line alone and only touches the
	// node for a write's dirty bit or a trace event.
	m := &a.mru[base+coreID]
	if m.tag == tag && m.head != nilSlot {
		if m.head == m.tail {
			// Hit in the LRU block: one fewer way would have
			// missed (Section 2.1).
			a.lruHits[coreID]++
		}
		if write {
			nd := &a.nodes[setBase+int(m.head)]
			nd.dirty = true
			if a.trace.ShouldEmit(telemetry.KindHit) {
				a.trace.EmitBlock(telemetry.KindHit, telemetry.BlockEvent{
					Cycle: now, Core: coreID, Owner: int(nd.owner), Set: setIdx,
					Tag: tag, Depth: 0, Home: int(nd.home), Dirty: true,
				})
			}
		} else if a.trace.ShouldEmit(telemetry.KindHit) {
			// Read hit: the node line is only touched when the sampler
			// actually wants the event, so the skipped common case costs
			// one increment and one compare.
			nd := &a.nodes[setBase+int(m.head)]
			a.trace.EmitBlock(telemetry.KindHit, telemetry.BlockEvent{
				Cycle: now, Core: coreID, Owner: int(nd.owner), Set: setIdx,
				Tag: tag, Depth: 0, Home: int(nd.home), Dirty: nd.dirty,
			})
		}
		st.LocalHits++
		lat := uint64(a.cfg.Latencies.LocalHit)
		st.TotalLatency += lat
		a.lat.ObserveLocal(coreID, lat)
		return now + lat, true
	}
	for n, depth := m.head, 0; n != nilSlot; depth++ {
		nd := &a.nodes[setBase+int(n)]
		if nd.tag == tag {
			if n == m.tail {
				a.lruHits[coreID]++
			}
			nd.dirty = nd.dirty || write
			if a.trace.ShouldEmit(telemetry.KindHit) {
				a.trace.EmitBlock(telemetry.KindHit, telemetry.BlockEvent{
					Cycle: now, Core: coreID, Owner: int(nd.owner), Set: setIdx,
					Tag: tag, Depth: depth, Home: int(nd.home), Dirty: nd.dirty,
				})
			}
			a.privMoveToFront(setBase, m, n) // n != m.head: the mirror ruled that out
			st.LocalHits++
			lat := uint64(a.cfg.Latencies.LocalHit)
			st.TotalLatency += lat
			a.lat.ObserveLocal(coreID, lat)
			return now + lat, true
		}
		n = nd.next
	}

	// Phase 2: the rest of the set — "the tags for all blocks in the set
	// are compared" (§2.5): the shared partition and, for workloads with
	// genuinely shared blocks (parallel mode), other cores' private
	// partitions, all checked in parallel by the hardware.
	sh := &a.setHdrs[setIdx]
	cnts := a.cnts[base : base+a.cfg.Cores]
	for n, depth := sh.sharedHead, 0; n != nilSlot; depth++ {
		nd := &a.nodes[setBase+int(n)]
		if nd.tag == tag {
			local := int(nd.home) == coreID
			lat := uint64(a.cfg.Latencies.RemoteHit)
			if local {
				lat = uint64(a.cfg.Latencies.LocalHit)
				st.LocalHits++
			} else {
				st.RemoteHits++
			}
			st.TotalLatency += lat
			if local {
				a.lat.ObserveLocal(coreID, lat)
			} else {
				a.lat.ObserveRemote(coreID, lat)
			}

			// Section 2.3: the hit block moves into the private
			// partition; the private LRU block takes its slot and
			// becomes shared-MRU.
			a.setStats[setIdx].Swaps++
			a.aggStats.Swaps++
			if a.trace.ShouldEmit(telemetry.KindSwap) {
				a.trace.EmitBlock(telemetry.KindSwap, telemetry.BlockEvent{
					Cycle: now, Core: coreID, Owner: int(nd.owner), Set: setIdx,
					Tag: tag, Depth: depth, Home: int(nd.home), Dirty: nd.dirty,
				})
			}
			oldHome := nd.home
			a.sharedUnlink(setBase, sh, n)
			cnts[nd.owner].owner--
			cnts[nd.home].home--
			a.totalShared--
			nd.dirty = nd.dirty || write
			// Figure 4(a): the core ID field is updated with the
			// requesting core on every install; for multiprogrammed
			// workloads the owner never actually changes, but shared
			// (parallel-mode) blocks follow their most recent user.
			nd.owner = int8(coreID)
			nd.home = int8(coreID)
			cnts[coreID].owner++
			cnts[coreID].home++
			a.totalPriv++
			a.adoptIntoPrivate(setIdx, coreID, n, oldHome, now)
			return now + lat, true
		}
		n = nd.next
	}
	for other := 0; other < a.cfg.Cores; other++ {
		if other == coreID {
			continue
		}
		om := &a.mru[base+other]
		for n, depth := om.head, 0; n != nilSlot; depth++ {
			nd := &a.nodes[setBase+int(n)]
			if nd.tag != tag {
				n = nd.next
				continue
			}
			// Hit in a neighbor's private partition (shared data):
			// migrate to the requester, like a neighbor-cache hit.
			a.setStats[setIdx].Migrations++
			a.aggStats.Migrations++
			if a.trace.ShouldEmit(telemetry.KindMigrate) {
				a.trace.EmitBlock(telemetry.KindMigrate, telemetry.BlockEvent{
					Cycle: now, Core: coreID, Owner: int(nd.owner), Set: setIdx,
					Tag: tag, Depth: depth, Home: int(nd.home), Dirty: nd.dirty,
				})
			}
			a.privUnlink(setBase, om, n)
			cnts[other].owner--
			cnts[other].home--
			st.RemoteHits++
			lat := uint64(a.cfg.Latencies.RemoteHit)
			st.TotalLatency += lat
			a.lat.ObserveRemote(coreID, lat)
			oldHome := nd.home
			nd.dirty = nd.dirty || write
			nd.owner = int8(coreID) // requester is the new fetcher
			nd.home = int8(coreID)
			cnts[coreID].owner++
			cnts[coreID].home++
			a.adoptIntoPrivate(setIdx, coreID, n, oldHome, now)
			return now + lat, true
		}
	}

	// Miss: check the shadow tag (gain estimator, Section 2.1), then
	// fetch from memory into the private partition.
	st.Misses++
	if a.shadow.Match(setIdx, coreID, tag) {
		a.shadowHits[coreID]++
	}
	ready, _ := a.mem.ReadBlock(now)
	st.TotalLatency += ready - now
	a.lat.ObserveMiss(coreID, ready-now)

	n := a.allocNode(setBase, sh)
	// Every field stored one by one: a composite literal here is built
	// on the stack and then copied into the arena.
	nd := &a.nodes[setBase+int(n)]
	nd.tag, nd.prev, nd.next = tag, nilSlot, nilSlot
	nd.owner, nd.home, nd.dirty = int8(coreID), int8(coreID), write
	a.privPushFront(setBase, m, n)
	cnts[coreID].owner++
	cnts[coreID].home++
	a.totalPriv++
	a.setStats[setIdx].Fills++
	a.aggStats.Fills++
	if a.trace.ShouldEmit(telemetry.KindFill) {
		a.trace.EmitBlock(telemetry.KindFill, telemetry.BlockEvent{
			Cycle: now, Core: coreID, Owner: coreID, Set: setIdx,
			Tag: tag, Depth: 0, Home: coreID, Dirty: write,
		})
	}
	// Lazy repartitioning: drain the private partition down to its
	// current target (Section 2.5).
	for int(m.privLen) > a.privTarget(coreID) {
		depth := int(m.privLen) - 1
		dn := m.tail
		nd := &a.nodes[setBase+int(dn)]
		a.privUnlink(setBase, m, dn)
		st.Demotions++
		a.setStats[setIdx].Demotions++
		a.aggStats.Demotions++
		if a.trace.ShouldEmit(telemetry.KindDemote) {
			a.trace.EmitBlock(telemetry.KindDemote, telemetry.BlockEvent{
				Cycle: now, Core: coreID, Owner: int(nd.owner), Set: setIdx,
				Tag: nd.tag, Depth: depth, Home: int(nd.home), Dirty: nd.dirty,
			})
		}
		a.sharedPushFront(setBase, sh, dn)
		a.totalPriv--
		a.totalShared++
	}
	// Evict until the global set fits its slots (Algorithm 1).
	for int(sh.total) > a.totalWays {
		a.evictAlgorithm1(setIdx, coreID, now)
	}
	a.rebalanceHomes(setIdx)

	a.missesSinceRepart++
	if a.missesSinceRepart >= a.cfg.RepartitionPeriod && !a.cfg.DisableAdaptation {
		a.repartition(now)
	}
	return ready, false
}

// adoptIntoPrivate inserts a migrated block (arena node n, already
// reowned/rehomed to coreID and counted in the occupancy index) at the
// requester's private MRU position, demoting the private LRU into the
// slot the block vacated (Section 2.3's swap), then restores the
// physical-home invariant.
func (a *Adaptive) adoptIntoPrivate(setIdx, coreID int, n int16, vacatedHome int8, now uint64) {
	setBase := setIdx * a.slotsPerSet
	base := setIdx * a.cfg.Cores
	// The block re-enters coreID's partition without a fill, so a shadow
	// register still naming it would alias a resident block. For disjoint
	// per-core address spaces this never fires (the re-fill's Match already
	// consumed the entry); it matters for parallel-mode shared blocks.
	a.shadow.Invalidate(setIdx, coreID, a.nodes[setBase+int(n)].tag)
	m := &a.mru[base+coreID]
	a.privPushFront(setBase, m, n)
	if int(m.privLen) > a.privTarget(coreID) {
		depth := int(m.privLen) - 1
		dn := m.tail
		nd := &a.nodes[setBase+int(dn)]
		a.privUnlink(setBase, m, dn)
		// Physical swap: the demoted block (home == coreID, it was
		// private) takes the slot the promoted block vacated.
		a.cnts[base+int(nd.home)].home--
		nd.home = vacatedHome
		a.cnts[base+int(vacatedHome)].home++
		a.perCore[coreID].Demotions++
		a.setStats[setIdx].Demotions++
		a.aggStats.Demotions++
		if a.trace.ShouldEmit(telemetry.KindDemote) {
			a.trace.EmitBlock(telemetry.KindDemote, telemetry.BlockEvent{
				Cycle: now, Core: coreID, Owner: int(nd.owner), Set: setIdx,
				Tag: nd.tag, Depth: depth, Home: int(nd.home), Dirty: nd.dirty,
			})
		}
		a.sharedPushFront(setBase, &a.setHdrs[setIdx], dn)
		a.totalPriv--
		a.totalShared++
	}
	a.rebalanceHomes(setIdx)
}

// evictAlgorithm1 removes one block from the shared partition following
// Algorithm 1 and hands it to memory (shadow-tag record + writeback).
// requester is the core whose fill forced the eviction (telemetry only).
// The over-limit owner test reads the incremental occupancy index, so the
// common under-limit case costs one O(cores) check instead of a set scan.
func (a *Adaptive) evictAlgorithm1(setIdx, requester int, now uint64) {
	sh := &a.setHdrs[setIdx]
	if sh.sharedLen == 0 {
		panic("core: shared partition empty during eviction — invariant broken")
	}
	setBase := setIdx * a.slotsPerSet
	base := setIdx * a.cfg.Cores
	cnts := a.cnts[base : base+a.cfg.Cores]
	victim := sh.sharedTail // step 8: global LRU fallback
	depth := int(sh.sharedLen) - 1
	overLimit := false
	if !a.cfg.DisableProtection {
		anyOver := false
		for c := range cnts {
			if int(cnts[c].owner) > a.maxBlocks[c] {
				anyOver = true
				break
			}
		}
		if anyOver {
			for n, i := sh.sharedTail, int(sh.sharedLen)-1; n != nilSlot; i-- {
				owner := a.nodes[setBase+int(n)].owner
				if int(cnts[owner].owner) > a.maxBlocks[owner] {
					victim, depth, overLimit = n, i, true
					break
				}
				n = a.nodes[setBase+int(n)].prev
			}
		}
	}
	nd := &a.nodes[setBase+int(victim)]
	vTag, vOwner, vHome, vDirty := nd.tag, nd.owner, nd.home, nd.dirty
	a.sharedUnlink(setBase, sh, victim)
	cnts[vOwner].owner--
	cnts[vHome].home--
	a.freeNode(setBase, sh, victim)
	a.totalShared--
	a.setStats[setIdx].Evictions++
	a.aggStats.Evictions++
	if int(vOwner) != requester {
		a.setStats[setIdx].Steals++
		a.aggStats.Steals++
	}
	if a.trace.ShouldEmit(telemetry.KindEvict) {
		a.trace.EmitBlock(telemetry.KindEvict, telemetry.BlockEvent{
			Cycle: now, Core: requester, Owner: int(vOwner), Set: setIdx,
			Tag: vTag, Depth: depth, Home: int(vHome),
			Dirty: vDirty, OverLimit: overLimit,
		})
	}
	a.shadow.Record(setIdx, int(vOwner), vTag)
	ost := &a.perCore[vOwner]
	ost.Evictions++
	if vDirty {
		ost.Writebacks++
		a.mem.Writeback(now)
	}
}

// rebalanceHomes restores the physical constraint that each local cache
// holds at most LocalWays blocks, by relocating shared-partition blocks
// (private blocks never move; they are always home at their owner). The
// MRU-most overflow block moves — on the miss path that is the block just
// demoted into the slot vacated by the Algorithm 1 victim. The overflow
// test reads the incremental home counters, so the common balanced case
// is O(cores) with no set scan.
func (a *Adaptive) rebalanceHomes(setIdx int) {
	base := setIdx * a.cfg.Cores
	setBase := setIdx * a.slotsPerSet
	cnts := a.cnts[base : base+a.cfg.Cores]
	ways := int16(a.cfg.LocalWays)
	for {
		over := -1
		for c := range cnts {
			if cnts[c].home > ways {
				over = c
				break
			}
		}
		if over < 0 {
			return
		}
		moved := false
		for n := a.setHdrs[setIdx].sharedHead; n != nilSlot; { // MRU-most first
			nd := &a.nodes[setBase+int(n)]
			if int(nd.home) != over {
				n = nd.next
				continue
			}
			dest := -1
			for c := range cnts {
				if cnts[c].home < ways {
					dest = c
					break
				}
			}
			if dest < 0 {
				panic("core: no destination slot during home rebalance — invariant broken")
			}
			nd.home = int8(dest)
			cnts[over].home--
			cnts[dest].home++
			moved = true
			break
		}
		if !moved {
			panic("core: overfull local cache holds no shared blocks — invariant broken")
		}
	}
}

// repartition is the Section 2.1 re-evaluation: compare the best gain of
// growing against the smallest loss of shrinking and transfer one block
// per set if worthwhile. now is the decision cycle (telemetry only).
func (a *Adaptive) repartition(now uint64) {
	sp := a.spans.StartSpan("adaptive.repartition", a.spanParent)
	a.missesSinceRepart = 0
	a.Evaluations++

	gainer := 0
	for c := 1; c < a.cfg.Cores; c++ {
		if a.shadowHits[c] > a.shadowHits[gainer] {
			gainer = c
		}
	}
	loser := -1
	for c := 0; c < a.cfg.Cores; c++ {
		if c == gainer {
			continue
		}
		if loser < 0 || a.lruHits[c] < a.lruHits[loser] {
			loser = c
		}
	}
	gain := float64(a.shadowHits[gainer]) * a.shadow.SampleFactor()
	loss := float64(a.lruHits[loser])

	transferred := false
	upperBound := a.totalWays - (a.cfg.Cores - 1) // everyone keeps ≥1
	if gain > loss && a.maxBlocks[loser] > 1 && a.maxBlocks[gainer] < upperBound {
		a.maxBlocks[gainer]++
		a.maxBlocks[loser]--
		a.Repartitions++
		transferred = true
	}
	if transferred {
		a.sinceLimitChange = 0
	} else {
		a.sinceLimitChange++
	}
	if a.tel != nil {
		a.flushTelemetry()
		a.observeEpoch(now, gainer, loser, gain, loss, transferred)
	}
	for c := range a.shadowHits {
		a.shadowHits[c] = 0
		a.lruHits[c] = 0
	}
	if a.OnRepartition != nil {
		a.OnRepartition(a.MaxBlocks(), transferred)
	}
	sp.SetDetail(a.Evaluations)
	sp.End()
}

// observeEpoch records the evaluation just decided into the telemetry
// epoch ring and event trace. Occupancy and activity totals come from the
// incrementally maintained whole-cache counters (totalPriv, totalShared,
// aggStats), so the observer is O(cores) — it no longer scans the sets.
func (a *Adaptive) observeEpoch(now uint64, gainer, loser int, gain, loss float64, transferred bool) {
	agg := a.aggStats
	s := telemetry.EpochSample{
		Eval:          a.Evaluations,
		Cycle:         now,
		Limits:        append([]int(nil), a.maxBlocks...),
		ShadowHits:    append([]uint64(nil), a.shadowHits...),
		LRUHits:       append([]uint64(nil), a.lruHits...),
		Gainer:        gainer,
		Loser:         loser,
		Gain:          gain,
		Loss:          loss,
		Transferred:   transferred,
		PrivateBlocks: a.totalPriv,
		SharedBlocks:  a.totalShared,
		EpochAccesses: make([]uint64, a.cfg.Cores),
		EpochMisses:   make([]uint64, a.cfg.Cores),

		EpochSwaps:      agg.Swaps - a.lastSetAgg.Swaps,
		EpochMigrations: agg.Migrations - a.lastSetAgg.Migrations,
		EpochDemotions:  agg.Demotions - a.lastSetAgg.Demotions,
		EpochEvictions:  agg.Evictions - a.lastSetAgg.Evictions,
		EpochSteals:     agg.Steals - a.lastSetAgg.Steals,

		EpochsSinceLimitChange: a.sinceLimitChange,
	}
	a.lastSetAgg = agg
	// Per-epoch access-latency percentiles: merge the per-core/per-outcome
	// histograms, subtract the previous boundary's totals, interpolate.
	var cur telemetry.Histogram
	a.lat.MergeInto(&cur)
	delta := cur
	delta.Subtract(&a.epochLatBase)
	a.epochLatBase = cur
	s.LatP50 = delta.Quantile(0.50)
	s.LatP90 = delta.Quantile(0.90)
	s.LatP99 = delta.Quantile(0.99)
	for c := range a.perCore {
		s.EpochAccesses[c] = a.perCore[c].Accesses - a.epochStats[c].Accesses
		s.EpochMisses[c] = a.perCore[c].Misses - a.epochStats[c].Misses
		a.epochStats[c] = a.perCore[c]
	}
	a.tel.RecordEpoch(s)
	a.trace.Decision(telemetry.DecisionEvent{
		Cycle:       now,
		Eval:        a.Evaluations,
		Gainer:      gainer,
		Loser:       loser,
		Gain:        gain,
		Loss:        loss,
		Transferred: transferred,
		Limits:      a.maxBlocks,
		ShadowHits:  a.shadowHits,
		LRUHits:     a.lruHits,
	})
}

// Counters returns copies of the current gain/loss counters (Figure 4(c)):
// per-core shadow-tag hits and LRU-block hits accumulated since the last
// re-evaluation. Exposed for tests, examples, and the experiment harness.
func (a *Adaptive) Counters() (shadowHits, lruHits []uint64) {
	shadowHits = make([]uint64, len(a.shadowHits))
	lruHits = make([]uint64, len(a.lruHits))
	copy(shadowHits, a.shadowHits)
	copy(lruHits, a.lruHits)
	return shadowHits, lruHits
}

// WritebackFromL2 implements llc.Organization.
func (a *Adaptive) WritebackFromL2(coreID int, addr memaddr.Addr, now uint64) {
	setIdx, tag := a.setOf(addr), a.tagOf(addr)
	base := setIdx * a.cfg.Cores
	setBase := setIdx * a.slotsPerSet
	for c := 0; c < a.cfg.Cores; c++ {
		for n := a.mru[base+c].head; n != nilSlot; {
			nd := &a.nodes[setBase+int(n)]
			if nd.tag == tag {
				nd.dirty = true
				return
			}
			n = nd.next
		}
	}
	for n := a.setHdrs[setIdx].sharedHead; n != nilSlot; {
		nd := &a.nodes[setBase+int(n)]
		if nd.tag == tag {
			nd.dirty = true
			return
		}
		n = nd.next
	}
	a.mem.Writeback(now)
	a.perCore[coreID].Writebacks++
}

// CoreStats implements llc.Organization.
func (a *Adaptive) CoreStats(core int) llc.AccessStats { return a.perCore[core] }

// TotalStats implements llc.Organization.
func (a *Adaptive) TotalStats() llc.AccessStats {
	var t llc.AccessStats
	for _, s := range a.perCore {
		t.Accesses += s.Accesses
		t.LocalHits += s.LocalHits
		t.RemoteHits += s.RemoteHits
		t.Misses += s.Misses
		t.Evictions += s.Evictions
		t.Writebacks += s.Writebacks
		t.Demotions += s.Demotions
		t.TotalLatency += s.TotalLatency
	}
	return t
}

// Reset implements llc.Organization: contents, counters and limits return
// to the initial state.
func (a *Adaptive) Reset() {
	a.buildArena(func() []BlockState { return nil })
	a.shadow.Reset()
	initial := a.cfg.LocalWays * 3 / 4
	if initial < 1 {
		initial = 1
	}
	for c := range a.maxBlocks {
		a.maxBlocks[c] = initial
		a.shadowHits[c] = 0
		a.lruHits[c] = 0
		a.perCore[c] = llc.AccessStats{}
	}
	for c := range a.epochStats {
		a.epochStats[c] = llc.AccessStats{}
	}
	for i := range a.setStats {
		a.setStats[i] = llc.SetStats{}
	}
	a.aggStats = llc.SetStats{}
	a.lastSetAgg = llc.SetStats{}
	a.lastCtrFlush = llc.SetStats{}
	a.epochLatBase = telemetry.Histogram{}
	a.lat.MergeInto(&a.epochLatBase)
	a.missesSinceRepart = 0
	a.Repartitions = 0
	a.Evaluations = 0
	a.sinceLimitChange = 0
}

// Memory returns the underlying memory model (test helper).
func (a *Adaptive) Memory() *dram.Memory { return a.mem }

// Probe reports whether the block is resident in any partition (tests).
func (a *Adaptive) Probe(addr memaddr.Addr) bool {
	setIdx, tag := a.setOf(addr), a.tagOf(addr)
	base := setIdx * a.cfg.Cores
	setBase := setIdx * a.slotsPerSet
	for c := 0; c < a.cfg.Cores; c++ {
		for n := a.mru[base+c].head; n != nilSlot; {
			if a.nodes[setBase+int(n)].tag == tag {
				return true
			}
			n = a.nodes[setBase+int(n)].next
		}
	}
	for n := a.setHdrs[setIdx].sharedHead; n != nilSlot; {
		if a.nodes[setBase+int(n)].tag == tag {
			return true
		}
		n = a.nodes[setBase+int(n)].next
	}
	return false
}

// NumSets returns the number of global sets.
func (a *Adaptive) NumSets() int { return a.geom.Sets }

// NumCores returns the core count.
func (a *Adaptive) NumCores() int { return a.cfg.Cores }

// LocalWays returns the associativity of each core's local cache.
func (a *Adaptive) LocalWays() int { return a.cfg.LocalWays }

// TotalWays returns the slot count of one global set (cores × local ways).
func (a *Adaptive) TotalWays() int { return a.totalWays }

// InitialLimit returns the per-core maxBlocksInSet the controller starts
// from (75 % of the local ways, at least 1 — Section 2.1). The limits
// always sum to InitialLimit()×NumCores(): repartitioning only transfers.
func (a *Adaptive) InitialLimit() int {
	initial := a.cfg.LocalWays * 3 / 4
	if initial < 1 {
		initial = 1
	}
	return initial
}

// ShadowEntry exposes the shadow register for (set, core): the recorded
// tag and whether the register is valid (external invariant checks).
func (a *Adaptive) ShadowEntry(set, core int) (tag uint64, ok bool) {
	return a.shadow.Entry(set, core)
}

// SetStats returns a copy of the per-global-set activity counters.
func (a *Adaptive) SetStats() []llc.SetStats {
	out := make([]llc.SetStats, len(a.setStats))
	copy(out, a.setStats)
	return out
}

// BlockTotals returns the incrementally maintained whole-cache resident
// totals (private blocks, shared blocks) and the whole-cache activity
// aggregate — the values observeEpoch reads. Checkers compare them
// against a full recount (invariant I9).
func (a *Adaptive) BlockTotals() (privBlocks, sharedBlocks int, agg llc.SetStats) {
	return a.totalPriv, a.totalShared, a.aggStats
}

// SetDump is the replay-comparable content of one global set: per-core
// private tags and the shared stack's tags and owners, all MRU→LRU.
// Physical homes and dirty bits are deliberately omitted — they are
// latency/writeback bookkeeping, not partitioning state, and the replay
// cross-check (internal/replay) compares everything the sharing engine
// decides on.
type SetDump struct {
	Priv         [][]uint64
	SharedTags   []uint64
	SharedOwners []int
}

// DumpSetInto fills d with the content of global set idx, reusing d's
// slices when they have capacity — the per-epoch verifier sweep does not
// allocate once the scratch dump has grown to the set shape.
func (a *Adaptive) DumpSetInto(idx int, d *SetDump) {
	cores := a.cfg.Cores
	if cap(d.Priv) < cores {
		d.Priv = make([][]uint64, cores)
	}
	d.Priv = d.Priv[:cores]
	base := idx * cores
	setBase := idx * a.slotsPerSet
	for c := 0; c < cores; c++ {
		tags := d.Priv[c][:0]
		for n := a.mru[base+c].head; n != nilSlot; {
			tags = append(tags, a.nodes[setBase+int(n)].tag)
			n = a.nodes[setBase+int(n)].next
		}
		d.Priv[c] = tags
	}
	d.SharedTags = d.SharedTags[:0]
	d.SharedOwners = d.SharedOwners[:0]
	for n := a.setHdrs[idx].sharedHead; n != nilSlot; {
		nd := &a.nodes[setBase+int(n)]
		d.SharedTags = append(d.SharedTags, nd.tag)
		d.SharedOwners = append(d.SharedOwners, int(nd.owner))
		n = nd.next
	}
}

// OccupancyOfSet describes one global set for inspection: per-core private
// sizes, the shared stack size, and per-owner block counts.
type OccupancyOfSet struct {
	Private      []int
	SharedBlocks int
	ByOwner      []int
	ByHome       []int
}

// InspectSet returns the occupancy of global set idx (tests/examples),
// allocating a fresh record. Loops should use InspectSetInto.
func (a *Adaptive) InspectSet(idx int) OccupancyOfSet {
	var occ OccupancyOfSet
	a.InspectSetInto(idx, &occ)
	return occ
}

// resizeInts returns s with length n, reusing capacity, zero-filled.
func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// InspectSetInto fills occ from the incremental occupancy index — O(cores)
// reads of the set's headers, no block scan, no allocation once occ's
// slices have grown to the core count.
func (a *Adaptive) InspectSetInto(idx int, occ *OccupancyOfSet) {
	cores := a.cfg.Cores
	occ.Private = resizeInts(occ.Private, cores)
	occ.ByOwner = resizeInts(occ.ByOwner, cores)
	occ.ByHome = resizeInts(occ.ByHome, cores)
	base := idx * cores
	for c := 0; c < cores; c++ {
		occ.Private[c] = int(a.mru[base+c].privLen)
		occ.ByOwner[c] = int(a.cnts[base+c].owner)
		occ.ByHome[c] = int(a.cnts[base+c].home)
	}
	occ.SharedBlocks = int(a.setHdrs[idx].sharedLen)
}

// RecountSetInto re-derives the occupancy of global set idx into occ by
// walking the block lists, ignoring the incremental counters. Comparing
// it against InspectSet is invariant I9: the incremental index must equal
// a full recount. Walks are bounded by the arena span, so a corrupted
// (cyclic) list yields a mismatching count instead of a hang.
func (a *Adaptive) RecountSetInto(idx int, occ *OccupancyOfSet) {
	cores := a.cfg.Cores
	occ.Private = resizeInts(occ.Private, cores)
	occ.ByOwner = resizeInts(occ.ByOwner, cores)
	occ.ByHome = resizeInts(occ.ByHome, cores)
	occ.SharedBlocks = 0
	base := idx * cores
	setBase := idx * a.slotsPerSet
	count := func(n int16) bool {
		nd := &a.nodes[setBase+int(n)]
		if int(nd.owner) < 0 || int(nd.owner) >= cores || int(nd.home) < 0 || int(nd.home) >= cores {
			return false
		}
		occ.ByOwner[nd.owner]++
		occ.ByHome[nd.home]++
		return true
	}
	for c := 0; c < cores; c++ {
		for n, steps := a.mru[base+c].head, 0; n != nilSlot && steps <= a.slotsPerSet; steps++ {
			occ.Private[c]++
			if !count(n) {
				return
			}
			n = a.nodes[setBase+int(n)].next
		}
	}
	for n, steps := a.setHdrs[idx].sharedHead, 0; n != nilSlot && steps <= a.slotsPerSet; steps++ {
		occ.SharedBlocks++
		if !count(n) {
			return
		}
		n = a.nodes[setBase+int(n)].next
	}
}

// CheckInvariants validates the structural invariants of every global set
// and the controller — including that the incremental occupancy index and
// whole-cache totals match a full recount — and returns a description of
// the first violation or the empty string. Exercised by property tests.
func (a *Adaptive) CheckInvariants() string {
	sumLimits := 0
	for c, m := range a.maxBlocks {
		if m < 1 || m > a.totalWays-(a.cfg.Cores-1) {
			return fmt.Sprintf("core %d limit %d out of range", c, m)
		}
		sumLimits += m
	}
	initial := a.cfg.LocalWays * 3 / 4
	if initial < 1 {
		initial = 1
	}
	if sumLimits != initial*a.cfg.Cores {
		return fmt.Sprintf("limits sum %d, want %d", sumLimits, initial*a.cfg.Cores)
	}
	sumPriv, sumShared := 0, 0
	var sumStats llc.SetStats
	// Scratch reused by every set: the tags walked so far in the set and
	// the occupancy records of the I9 recount.
	seen := make([]uint64, 0, a.slotsPerSet)
	var inc, rec OccupancyOfSet
	for i := range a.setHdrs {
		sh := &a.setHdrs[i]
		base := i * a.cfg.Cores
		setBase := i * a.slotsPerSet
		total := 0
		seen = seen[:0]
		for c := 0; c < a.cfg.Cores; c++ {
			m := &a.mru[base+c]
			walked := 0
			prev := nilSlot
			for n := m.head; n != nilSlot; n = a.nodes[setBase+int(n)].next {
				nd := &a.nodes[setBase+int(n)]
				if nd.prev != prev {
					return fmt.Sprintf("set %d core %d: broken private back-link at slot %d", i, c, n)
				}
				if int(nd.owner) != c || int(nd.home) != c {
					return fmt.Sprintf("set %d: private block of core %d has owner %d home %d", i, c, nd.owner, nd.home)
				}
				if slices.Contains(seen, nd.tag) {
					return fmt.Sprintf("set %d: duplicate tag %#x", i, nd.tag)
				}
				seen = append(seen, nd.tag)
				walked++
				if walked > a.slotsPerSet {
					return fmt.Sprintf("set %d core %d: private list does not terminate", i, c)
				}
				prev = n
			}
			if m.tail != prev {
				return fmt.Sprintf("set %d core %d: private tail %d, walk ends at %d", i, c, m.tail, prev)
			}
			if m.head != nilSlot && m.tag != a.nodes[setBase+int(m.head)].tag {
				return fmt.Sprintf("set %d core %d: MRU tag mirror %#x, MRU node holds %#x", i, c, m.tag, a.nodes[setBase+int(m.head)].tag)
			}
			if walked != int(m.privLen) {
				return fmt.Sprintf("set %d core %d: privLen %d, walk found %d", i, c, m.privLen, walked)
			}
			if walked > a.cfg.LocalWays {
				return fmt.Sprintf("set %d core %d private %d > ways", i, c, walked)
			}
			total += walked
		}
		sharedWalked := 0
		prev := nilSlot
		for n := sh.sharedHead; n != nilSlot; n = a.nodes[setBase+int(n)].next {
			nd := &a.nodes[setBase+int(n)]
			if nd.prev != prev {
				return fmt.Sprintf("set %d: broken shared back-link at slot %d", i, n)
			}
			if int(nd.owner) < 0 || int(nd.owner) >= a.cfg.Cores {
				return fmt.Sprintf("set %d: shared block %#x has owner %d out of [0,%d)", i, nd.tag, nd.owner, a.cfg.Cores)
			}
			if int(nd.home) < 0 || int(nd.home) >= a.cfg.Cores {
				return fmt.Sprintf("set %d: shared block %#x has home %d out of [0,%d)", i, nd.tag, nd.home, a.cfg.Cores)
			}
			if slices.Contains(seen, nd.tag) {
				return fmt.Sprintf("set %d: duplicate tag %#x in shared", i, nd.tag)
			}
			seen = append(seen, nd.tag)
			sharedWalked++
			if sharedWalked > a.slotsPerSet {
				return fmt.Sprintf("set %d: shared list does not terminate", i)
			}
			prev = n
		}
		if sh.sharedTail != prev {
			return fmt.Sprintf("set %d: shared tail %d, walk ends at %d", i, sh.sharedTail, prev)
		}
		if sharedWalked != int(sh.sharedLen) {
			return fmt.Sprintf("set %d: sharedLen %d, walk found %d", i, sh.sharedLen, sharedWalked)
		}
		total += sharedWalked
		if total > a.totalWays {
			return fmt.Sprintf("set %d holds %d blocks > %d", i, total, a.totalWays)
		}
		if total != int(sh.total) {
			return fmt.Sprintf("set %d: resident total %d, walk found %d", i, sh.total, total)
		}
		free := 0
		for n := sh.freeHead; n != nilSlot; n = a.nodes[setBase+int(n)].next {
			free++
			if free > a.slotsPerSet {
				return fmt.Sprintf("set %d: free list does not terminate", i)
			}
		}
		if free != a.slotsPerSet-total {
			return fmt.Sprintf("set %d: %d free slots, want %d", i, free, a.slotsPerSet-total)
		}
		// I9 (internal half): the incremental occupancy index must equal a
		// full recount of the block lists.
		a.InspectSetInto(i, &inc)
		a.RecountSetInto(i, &rec)
		for c := 0; c < a.cfg.Cores; c++ {
			if inc.ByOwner[c] != rec.ByOwner[c] {
				return fmt.Sprintf("set %d core %d: ownerCnt %d, recount %d", i, c, inc.ByOwner[c], rec.ByOwner[c])
			}
			if inc.ByHome[c] != rec.ByHome[c] {
				return fmt.Sprintf("set %d core %d: homeCnt %d, recount %d", i, c, inc.ByHome[c], rec.ByHome[c])
			}
			if rec.ByHome[c] > a.cfg.LocalWays {
				return fmt.Sprintf("set %d: local cache %d holds %d > %d blocks", i, c, rec.ByHome[c], a.cfg.LocalWays)
			}
		}
		sumPriv += total - sharedWalked
		sumShared += sharedWalked
		sumStats.Add(a.setStats[i])
		// A shadow register holds the tag of a block its core *lost*; if
		// the same tag is resident again under that owner, the register
		// was never consumed or retired and the gain estimate is skewed.
		for c := 0; c < a.cfg.Cores; c++ {
			tag, ok := a.shadow.Entry(i, c)
			if !ok {
				continue
			}
			for n := a.mru[base+c].head; n != nilSlot; n = a.nodes[setBase+int(n)].next {
				if a.nodes[setBase+int(n)].tag == tag {
					return fmt.Sprintf("set %d: shadow tag %#x of core %d aliases a resident private block", i, tag, c)
				}
			}
			for n := sh.sharedHead; n != nilSlot; n = a.nodes[setBase+int(n)].next {
				if int(a.nodes[setBase+int(n)].owner) == c && a.nodes[setBase+int(n)].tag == tag {
					return fmt.Sprintf("set %d: shadow tag %#x of core %d aliases a resident shared block", i, tag, c)
				}
			}
		}
	}
	if sumPriv != a.totalPriv || sumShared != a.totalShared {
		return fmt.Sprintf("whole-cache totals priv=%d shared=%d, recount priv=%d shared=%d",
			a.totalPriv, a.totalShared, sumPriv, sumShared)
	}
	if sumStats != a.aggStats {
		return fmt.Sprintf("whole-cache activity aggregate %+v, per-set sum %+v", a.aggStats, sumStats)
	}
	return ""
}

var _ llc.Organization = (*Adaptive)(nil)
