package core

import (
	"fmt"
	"testing"

	"nucasim/internal/cache"
	"nucasim/internal/dram"
	"nucasim/internal/llc"
	"nucasim/internal/memaddr"
	"nucasim/internal/rng"
)

// This file keeps the pre-arena engine alive as an executable reference
// model: per-set Go slices with copy-shift MRU promotion, exactly the
// semantics the flat-arena engine replaced. The differential property
// test drives both implementations with the same random multi-core
// access streams and requires identical observable behavior — every
// (latency, hit) pair, every stack order, every occupancy count, every
// controller decision. A divergence is a bug in the arena's pointer
// surgery that the structural invariants alone might not catch.

// refBlock is one resident block of the reference model.
type refBlock struct {
	tag   uint64
	owner int16
	home  int16
	dirty bool
}

// refSet is one global set: per-core private stacks plus the shared
// stack, each a slice in MRU→LRU order.
type refSet struct {
	priv   [][]refBlock
	shared []refBlock
}

func (s *refSet) total() int {
	n := len(s.shared)
	for _, p := range s.priv {
		n += len(p)
	}
	return n
}

func (s *refSet) ownerCounts(counts []int) {
	for i := range counts {
		counts[i] = len(s.priv[i])
	}
	for _, b := range s.shared {
		counts[b.owner]++
	}
}

func (s *refSet) homeCounts(counts []int) {
	for i := range counts {
		counts[i] = 0
	}
	for _, p := range s.priv {
		for _, b := range p {
			counts[b.home]++
		}
	}
	for _, b := range s.shared {
		counts[b.home]++
	}
}

// refModel is the slice-based engine, stripped of telemetry.
type refModel struct {
	cfg       Config
	geom      memaddr.Geometry
	totalWays int
	sets      []refSet
	mem       *dram.Memory

	maxBlocks  []int
	shadow     *cache.ShadowTagTable
	shadowHits []uint64
	lruHits    []uint64

	missesSinceRepart int
	perCore           []llc.AccessStats

	repartitions uint64
	evaluations  uint64

	countsScratch []int
	homesScratch  []int
}

func newRefModel(cfg Config, mem *dram.Memory) *refModel {
	cfg = cfg.withDefaults()
	geom := memaddr.NewGeometry(cfg.BytesPerCore, cfg.LocalWays)
	m := &refModel{
		cfg:           cfg,
		geom:          geom,
		totalWays:     cfg.LocalWays * cfg.Cores,
		sets:          make([]refSet, geom.Sets),
		mem:           mem,
		maxBlocks:     make([]int, cfg.Cores),
		shadow:        cache.NewShadowTagTable(geom.Sets, cfg.Cores, cfg.ShadowSampleShift),
		shadowHits:    make([]uint64, cfg.Cores),
		lruHits:       make([]uint64, cfg.Cores),
		perCore:       make([]llc.AccessStats, cfg.Cores),
		countsScratch: make([]int, cfg.Cores),
		homesScratch:  make([]int, cfg.Cores),
	}
	for i := range m.sets {
		m.sets[i].priv = make([][]refBlock, cfg.Cores)
	}
	initial := cfg.LocalWays * 3 / 4
	if initial < 1 {
		initial = 1
	}
	for c := range m.maxBlocks {
		m.maxBlocks[c] = initial
	}
	return m
}

func (m *refModel) privTarget(core int) int {
	t := m.maxBlocks[core]
	if t > m.cfg.LocalWays {
		t = m.cfg.LocalWays
	}
	if t < 1 {
		t = 1
	}
	return t
}

func refPrepend(stack []refBlock, b refBlock) []refBlock {
	stack = append(stack, refBlock{})
	copy(stack[1:], stack[:len(stack)-1])
	stack[0] = b
	return stack
}

func (m *refModel) Access(coreID int, addr memaddr.Addr, write bool, now uint64) (uint64, bool) {
	st := &m.perCore[coreID]
	st.Accesses++
	setIdx := m.geom.Set(addr)
	tag := m.geom.Tag(addr)
	s := &m.sets[setIdx]

	priv := s.priv[coreID]
	for i := range priv {
		if priv[i].tag == tag {
			if i == len(priv)-1 {
				m.lruHits[coreID]++
			}
			blk := priv[i]
			blk.dirty = blk.dirty || write
			copy(priv[1:i+1], priv[:i])
			priv[0] = blk
			st.LocalHits++
			lat := uint64(m.cfg.Latencies.LocalHit)
			st.TotalLatency += lat
			return now + lat, true
		}
	}

	for i := range s.shared {
		if s.shared[i].tag == tag {
			blk := s.shared[i]
			local := int(blk.home) == coreID
			lat := uint64(m.cfg.Latencies.RemoteHit)
			if local {
				lat = uint64(m.cfg.Latencies.LocalHit)
				st.LocalHits++
			} else {
				st.RemoteHits++
			}
			st.TotalLatency += lat
			oldHome := blk.home
			s.shared = append(s.shared[:i], s.shared[i+1:]...)
			blk.dirty = blk.dirty || write
			blk.owner = int16(coreID)
			blk.home = int16(coreID)
			m.adoptIntoPrivate(s, coreID, blk, oldHome, setIdx)
			return now + lat, true
		}
	}
	for other := range s.priv {
		if other == coreID {
			continue
		}
		op := s.priv[other]
		for i := range op {
			if op[i].tag != tag {
				continue
			}
			blk := op[i]
			s.priv[other] = append(op[:i], op[i+1:]...)
			st.RemoteHits++
			lat := uint64(m.cfg.Latencies.RemoteHit)
			st.TotalLatency += lat
			oldHome := blk.home
			blk.dirty = blk.dirty || write
			blk.owner = int16(coreID)
			blk.home = int16(coreID)
			m.adoptIntoPrivate(s, coreID, blk, oldHome, setIdx)
			return now + lat, true
		}
	}

	st.Misses++
	if m.shadow.Match(setIdx, coreID, tag) {
		m.shadowHits[coreID]++
	}
	ready, _ := m.mem.ReadBlock(now)
	st.TotalLatency += ready - now

	s.priv[coreID] = refPrepend(s.priv[coreID], refBlock{
		tag: tag, owner: int16(coreID), home: int16(coreID), dirty: write,
	})
	for len(s.priv[coreID]) > m.privTarget(coreID) {
		depth := len(s.priv[coreID]) - 1
		demoted := s.priv[coreID][depth]
		s.priv[coreID] = s.priv[coreID][:depth]
		st.Demotions++
		s.shared = refPrepend(s.shared, demoted)
	}
	for s.total() > m.totalWays {
		m.evictAlgorithm1(setIdx, coreID, s, now)
	}
	m.rebalanceHomes(s)

	m.missesSinceRepart++
	if m.missesSinceRepart >= m.cfg.RepartitionPeriod && !m.cfg.DisableAdaptation {
		m.repartition()
	}
	return ready, false
}

func (m *refModel) adoptIntoPrivate(s *refSet, coreID int, blk refBlock, vacatedHome int16, setIdx int) {
	m.shadow.Invalidate(setIdx, coreID, blk.tag)
	s.priv[coreID] = refPrepend(s.priv[coreID], blk)
	if len(s.priv[coreID]) > m.privTarget(coreID) {
		depth := len(s.priv[coreID]) - 1
		demoted := s.priv[coreID][depth]
		s.priv[coreID] = s.priv[coreID][:depth]
		demoted.home = vacatedHome
		m.perCore[coreID].Demotions++
		s.shared = refPrepend(s.shared, demoted)
	}
	m.rebalanceHomes(s)
}

func (m *refModel) evictAlgorithm1(setIdx, requester int, s *refSet, now uint64) {
	victimIdx := len(s.shared) - 1
	if !m.cfg.DisableProtection {
		s.ownerCounts(m.countsScratch)
		for i := len(s.shared) - 1; i >= 0; i-- {
			owner := s.shared[i].owner
			if m.countsScratch[owner] > m.maxBlocks[owner] {
				victimIdx = i
				break
			}
		}
	}
	victim := s.shared[victimIdx]
	s.shared = append(s.shared[:victimIdx], s.shared[victimIdx+1:]...)
	m.shadow.Record(setIdx, int(victim.owner), victim.tag)
	ost := &m.perCore[victim.owner]
	ost.Evictions++
	if victim.dirty {
		ost.Writebacks++
		m.mem.Writeback(now)
	}
}

func (m *refModel) rebalanceHomes(s *refSet) {
	counts := m.homesScratch
	s.homeCounts(counts)
	for {
		over := -1
		for c, n := range counts {
			if n > m.cfg.LocalWays {
				over = c
				break
			}
		}
		if over < 0 {
			return
		}
		for i := range s.shared {
			if int(s.shared[i].home) != over {
				continue
			}
			dest := -1
			for h, n := range counts {
				if n < m.cfg.LocalWays {
					dest = h
					break
				}
			}
			s.shared[i].home = int16(dest)
			counts[over]--
			counts[dest]++
			break
		}
	}
}

func (m *refModel) repartition() {
	m.missesSinceRepart = 0
	m.evaluations++
	gainer := 0
	for c := 1; c < m.cfg.Cores; c++ {
		if m.shadowHits[c] > m.shadowHits[gainer] {
			gainer = c
		}
	}
	loser := -1
	for c := 0; c < m.cfg.Cores; c++ {
		if c == gainer {
			continue
		}
		if loser < 0 || m.lruHits[c] < m.lruHits[loser] {
			loser = c
		}
	}
	gain := float64(m.shadowHits[gainer]) * m.shadow.SampleFactor()
	loss := float64(m.lruHits[loser])
	upperBound := m.totalWays - (m.cfg.Cores - 1)
	if gain > loss && m.maxBlocks[loser] > 1 && m.maxBlocks[gainer] < upperBound {
		m.maxBlocks[gainer]++
		m.maxBlocks[loser]--
		m.repartitions++
	}
	for c := range m.shadowHits {
		m.shadowHits[c] = 0
		m.lruHits[c] = 0
	}
}

// diffConfig describes one differential scenario.
type diffConfig struct {
	name      string
	cfg       Config
	accesses  int
	addrSpan  uint64 // block addresses drawn from [0, addrSpan)
	shared    bool   // omit the per-core space tag → cores contend for blocks
	writeFrac float64
}

// compareAll checks every externally observable view of both engines.
func compareAll(t *testing.T, step int, a *Adaptive, m *refModel) {
	t.Helper()
	if got, want := a.MaxBlocks(), m.maxBlocks; !equalIntSlices(got, want) {
		t.Fatalf("step %d: limits diverged: arena %v, reference %v", step, got, want)
	}
	gotSh, gotLRU := a.Counters()
	if !equalU64(gotSh, m.shadowHits) || !equalU64(gotLRU, m.lruHits) {
		t.Fatalf("step %d: controller counters diverged: arena %v/%v, reference %v/%v",
			step, gotSh, gotLRU, m.shadowHits, m.lruHits)
	}
	if a.Repartitions != m.repartitions || a.Evaluations != m.evaluations {
		t.Fatalf("step %d: repartitions %d/%d, reference %d/%d",
			step, a.Repartitions, a.Evaluations, m.repartitions, m.evaluations)
	}
	if got, want := a.TotalStats(), refTotal(m); got != want {
		t.Fatalf("step %d: total stats diverged:\narena     %+v\nreference %+v", step, got, want)
	}
	var d SetDump
	var occ OccupancyOfSet
	for idx := range m.sets {
		a.DumpSetInto(idx, &d)
		s := &m.sets[idx]
		for c := range s.priv {
			if len(d.Priv[c]) != len(s.priv[c]) {
				t.Fatalf("step %d set %d core %d: arena %d private blocks, reference %d",
					step, idx, c, len(d.Priv[c]), len(s.priv[c]))
			}
			for i, tag := range d.Priv[c] {
				if tag != s.priv[c][i].tag {
					t.Fatalf("step %d set %d core %d priv[%d]: arena tag %#x, reference %#x",
						step, idx, c, i, tag, s.priv[c][i].tag)
				}
			}
		}
		if len(d.SharedTags) != len(s.shared) {
			t.Fatalf("step %d set %d: arena %d shared blocks, reference %d",
				step, idx, len(d.SharedTags), len(s.shared))
		}
		for i := range s.shared {
			if d.SharedTags[i] != s.shared[i].tag || d.SharedOwners[i] != int(s.shared[i].owner) {
				t.Fatalf("step %d set %d shared[%d]: arena tag %#x owner %d, reference tag %#x owner %d",
					step, idx, i, d.SharedTags[i], d.SharedOwners[i], s.shared[i].tag, s.shared[i].owner)
			}
		}
		a.InspectSetInto(idx, &occ)
		s.ownerCounts(m.countsScratch)
		for c, want := range m.countsScratch {
			if occ.ByOwner[c] != want {
				t.Fatalf("step %d set %d core %d: arena owner count %d, reference %d",
					step, idx, c, occ.ByOwner[c], want)
			}
		}
		s.homeCounts(m.homesScratch)
		for c, want := range m.homesScratch {
			if occ.ByHome[c] != want {
				t.Fatalf("step %d set %d core %d: arena home count %d, reference %d",
					step, idx, c, occ.ByHome[c], want)
			}
		}
	}
	if msg := a.CheckInvariants(); msg != "" {
		t.Fatalf("step %d: arena invariants: %s", step, msg)
	}
}

func refTotal(m *refModel) llc.AccessStats {
	var t llc.AccessStats
	for _, s := range m.perCore {
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

func equalIntSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestArenaMatchesSliceReference is the differential property test: the
// flat-arena engine and the slice reference must agree on every access
// outcome and on full state at periodic checkpoints, across disjoint
// (multiprogrammed) and shared (parallel) address streams, small and
// skewed geometries, sampled shadow tags, and the ablation knobs.
func TestArenaMatchesSliceReference(t *testing.T) {
	scenarios := []diffConfig{
		{
			name:     "tiny-2sets-disjoint",
			cfg:      Config{Cores: 4, BytesPerCore: 2 * 4 * 64, LocalWays: 4, RepartitionPeriod: 40},
			accesses: 20000, addrSpan: 64, writeFrac: 0.3,
		},
		{
			name:     "tiny-2sets-shared",
			cfg:      Config{Cores: 4, BytesPerCore: 2 * 4 * 64, LocalWays: 4, RepartitionPeriod: 40},
			accesses: 20000, addrSpan: 64, shared: true, writeFrac: 0.3,
		},
		{
			name:     "3cores-8sets-disjoint",
			cfg:      Config{Cores: 3, BytesPerCore: 8 * 4 * 64, LocalWays: 4, RepartitionPeriod: 100},
			accesses: 30000, addrSpan: 512, writeFrac: 0.1,
		},
		{
			name:     "2cores-2ways-shared",
			cfg:      Config{Cores: 2, BytesPerCore: 4 * 2 * 64, LocalWays: 2, RepartitionPeriod: 60},
			accesses: 20000, addrSpan: 128, shared: true, writeFrac: 0.5,
		},
		{
			name: "sampled-shadow",
			cfg: Config{Cores: 4, BytesPerCore: 16 * 4 * 64, LocalWays: 4,
				RepartitionPeriod: 80, ShadowSampleShift: 2},
			accesses: 30000, addrSpan: 1024, writeFrac: 0.2,
		},
		{
			name: "no-protection",
			cfg: Config{Cores: 4, BytesPerCore: 2 * 4 * 64, LocalWays: 4,
				RepartitionPeriod: 40, DisableProtection: true},
			accesses: 15000, addrSpan: 64, writeFrac: 0.3,
		},
		{
			name: "no-adaptation",
			cfg: Config{Cores: 4, BytesPerCore: 2 * 4 * 64, LocalWays: 4,
				RepartitionPeriod: 40, DisableAdaptation: true},
			accesses: 15000, addrSpan: 64, shared: true, writeFrac: 0.3,
		},
	}
	for _, sc := range scenarios {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", sc.name, seed), func(t *testing.T) {
				// Each engine gets its own memory model so their timing
				// state stays independent but identically driven.
				a := NewAdaptive(sc.cfg, dram.New(dram.PrivateConfig()))
				m := newRefModel(sc.cfg, dram.New(dram.PrivateConfig()))
				r := rng.New(seed)
				cores := a.NumCores()
				for i := 0; i < sc.accesses; i++ {
					coreID := i % cores
					addr := memaddr.Addr(r.Uint64n(sc.addrSpan) << memaddr.BlockBits)
					if !sc.shared {
						addr = addr.WithSpace(coreID)
					}
					write := r.Float64() < sc.writeFrac
					now := uint64(i) * 3
					gotReady, gotHit := a.Access(coreID, addr, write, now)
					wantReady, wantHit := m.Access(coreID, addr, write, now)
					if gotReady != wantReady || gotHit != wantHit {
						t.Fatalf("access %d (core %d addr %v write %v): arena (%d,%v), reference (%d,%v)",
							i, coreID, addr, write, gotReady, gotHit, wantReady, wantHit)
					}
					if i%997 == 0 {
						compareAll(t, i, a, m)
					}
				}
				compareAll(t, sc.accesses, a, m)
			})
		}
	}
}

// snapshotStack returns stack c of global set idx from a snapshot of a,
// MRU→LRU: core c's private stack, or the shared stack for c = NumCores().
func snapshotStack(t *testing.T, a *Adaptive, idx, c int) []BlockState {
	t.Helper()
	next, err := a.Snapshot().Blocks.Split(a.NumSets()*(a.NumCores()+1), a.TotalWays())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < idx*(a.NumCores()+1)+c; k++ {
		next()
	}
	return next()
}

// TestWritebackFromL2Arena exercises the L2-victim sink on the arena
// layout directly: a resident private block is dirtied in place, a
// resident shared block is dirtied in place, and a non-resident block
// falls through to memory as a writeback.
func TestWritebackFromL2Arena(t *testing.T) {
	a := newTiny(t)
	addr := addrFor(0, 1, 0)
	a.Access(0, addr, false, 0)

	a.WritebackFromL2(0, addr, 10)
	if !snapshotStack(t, a, 0, 0)[0].Dirty {
		t.Fatal("WritebackFromL2 must dirty the resident private block")
	}
	if wb := a.CoreStats(0).Writebacks; wb != 0 {
		t.Fatalf("resident writeback must not reach memory, counted %d", wb)
	}

	// Demote the block into the shared partition by filling past the
	// private target, then dirty it there.
	for tag := uint64(2); tag <= 4; tag++ {
		a.Access(0, addrFor(0, tag, 0), false, 0)
	}
	shared := snapshotStack(t, a, 0, a.NumCores())
	if len(shared) == 0 || shared[0].Tag != 1 {
		t.Fatalf("expected tag 1 demoted to shared MRU, shared=%v", shared)
	}
	a.WritebackFromL2(0, addr, 20)
	if !snapshotStack(t, a, 0, a.NumCores())[0].Dirty {
		t.Fatal("WritebackFromL2 must dirty the resident shared block")
	}

	// Non-resident: goes to memory and is counted against the core.
	a.WritebackFromL2(2, addrFor(2, 99, 1), 30)
	if wb := a.CoreStats(2).Writebacks; wb != 1 {
		t.Fatalf("non-resident writeback must count against the core, got %d", wb)
	}
	if msg := a.CheckInvariants(); msg != "" {
		t.Fatalf("invariants after writebacks: %s", msg)
	}
}

// TestProbeArena exercises residency probing across both partitions and
// after eviction on the arena layout.
func TestProbeArena(t *testing.T) {
	a := newTiny(t)
	addr := addrFor(1, 7, 1)
	if a.Probe(addr) {
		t.Fatal("empty cache must not report residency")
	}
	a.Access(1, addr, false, 0)
	if !a.Probe(addr) {
		t.Fatal("filled private block must probe true")
	}
	// Demote into shared: still resident.
	for tag := uint64(8); tag <= 10; tag++ {
		a.Access(1, addrFor(1, tag, 1), false, 0)
	}
	wantTag := a.geom.Tag(addr) // includes core 1's address-space bits
	if shared := snapshotStack(t, a, 1, a.NumCores()); len(shared) == 0 || shared[0].Tag != wantTag {
		t.Fatalf("expected tag %#x demoted to shared, shared=%v", wantTag, shared)
	}
	if !a.Probe(addr) {
		t.Fatal("demoted shared block must probe true")
	}
	// Flood the whole set from every core so Algorithm 1 evicts it.
	for c := 0; c < a.NumCores(); c++ {
		for tag := uint64(100); tag < 100+uint64(a.LocalWays())+1; tag++ {
			a.Access(c, addrFor(c, tag, 1), false, 0)
		}
	}
	if a.Probe(addr) {
		t.Fatal("evicted block must probe false")
	}
	if msg := a.CheckInvariants(); msg != "" {
		t.Fatalf("invariants after probes: %s", msg)
	}
}
