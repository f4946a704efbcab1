// Package bpred implements the branch prediction hardware of the baseline
// core (Table 1): a combined predictor with a 4K-entry bimodal table, a
// 2-level predictor with a 1K-entry pattern history table indexed by a
// 10-bit global history, a 4K-entry chooser, and a 512-entry 4-way branch
// target buffer. A mispredicted branch costs the pipeline 7 cycles.
package bpred

import "nucasim/internal/memaddr"

// twoBit is a saturating 2-bit counter: 0,1 predict not-taken; 2,3 taken.
type twoBit uint8

func (c twoBit) taken() bool { return c >= 2 }

func (c twoBit) update(taken bool) twoBit {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// Config sizes the predictor. Zero fields select Table 1 defaults.
type Config struct {
	BimodalEntries int // default 4096
	Level2Entries  int // default 1024
	HistoryBits    int // default 10
	ChooserEntries int // default 4096
	BTBSets        int // default 128 (512 entries, 4-way)
	BTBWays        int // default 4
}

func (c Config) withDefaults() Config {
	if c.BimodalEntries == 0 {
		c.BimodalEntries = 4096
	}
	if c.Level2Entries == 0 {
		c.Level2Entries = 1024
	}
	if c.HistoryBits == 0 {
		c.HistoryBits = 10
	}
	if c.ChooserEntries == 0 {
		c.ChooserEntries = 4096
	}
	if c.BTBSets == 0 {
		c.BTBSets = 128
	}
	if c.BTBWays == 0 {
		c.BTBWays = 4
	}
	return c
}

// Stats counts predictor outcomes.
type Stats struct {
	Lookups     uint64
	Mispredicts uint64
	BTBMisses   uint64
}

// MispredictRate returns mispredicts/lookups.
func (s Stats) MispredictRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Lookups)
}

// Predictor is the combined branch predictor. Not safe for concurrent use;
// each simulated core owns one.
type Predictor struct {
	cfg      Config
	bimodal  []twoBit
	level2   []twoBit
	chooser  []twoBit // >=2 selects the 2-level predictor
	history  uint64
	histMask uint64
	btb      [][]BTBEntryState // per BTB set, MRU→LRU
	Stats    Stats
}

// New builds a predictor; zero Config fields take Table 1 defaults.
func New(cfg Config) *Predictor {
	cfg = cfg.withDefaults()
	p := &Predictor{
		cfg:      cfg,
		bimodal:  make([]twoBit, cfg.BimodalEntries),
		level2:   make([]twoBit, cfg.Level2Entries),
		chooser:  make([]twoBit, cfg.ChooserEntries),
		histMask: 1<<uint(cfg.HistoryBits) - 1,
		btb:      make([][]BTBEntryState, cfg.BTBSets),
	}
	// Weakly-taken initial state matches common simulator practice and
	// avoids a cold avalanche of mispredicts for loop branches.
	for i := range p.bimodal {
		p.bimodal[i] = 2
	}
	for i := range p.level2 {
		p.level2[i] = 2
	}
	entries := make([]BTBEntryState, cfg.BTBSets*cfg.BTBWays)
	for i := range p.btb {
		p.btb[i] = entries[i*cfg.BTBWays : i*cfg.BTBWays : (i+1)*cfg.BTBWays]
	}
	return p
}

func (p *Predictor) bimodalIdx(pc memaddr.Addr) int {
	return int(uint64(pc)>>2) & (p.cfg.BimodalEntries - 1)
}

func (p *Predictor) level2Idx(pc memaddr.Addr) int {
	return int((uint64(pc)>>2)^p.history) & (p.cfg.Level2Entries - 1)
}

func (p *Predictor) chooserIdx(pc memaddr.Addr) int {
	return int(uint64(pc)>>2) & (p.cfg.ChooserEntries - 1)
}

// PredictDirection returns the predicted taken/not-taken for the branch at
// pc without modifying any state (the update happens at resolve time).
func (p *Predictor) PredictDirection(pc memaddr.Addr) bool {
	if p.chooser[p.chooserIdx(pc)].taken() {
		return p.level2[p.level2Idx(pc)].taken()
	}
	return p.bimodal[p.bimodalIdx(pc)].taken()
}

// Resolve records the actual outcome of the branch at pc and reports
// whether the prediction (direction and, for taken branches, target) was
// wrong. target is the branch's actual destination.
func (p *Predictor) Resolve(pc memaddr.Addr, taken bool, target memaddr.Addr) (mispredict bool) {
	p.Stats.Lookups++
	bi, li, ci := p.bimodalIdx(pc), p.level2Idx(pc), p.chooserIdx(pc)
	bPred := p.bimodal[bi].taken()
	lPred := p.level2[li].taken()
	useL2 := p.chooser[ci].taken()
	pred := bPred
	if useL2 {
		pred = lPred
	}

	mispredict = pred != taken
	// A correctly-predicted taken branch still mispredicts if the BTB
	// cannot supply the target.
	if !mispredict && taken && !p.btbLookup(pc, target) {
		mispredict = true
		p.Stats.BTBMisses++
	}
	if mispredict {
		p.Stats.Mispredicts++
	}

	// Chooser trains toward the component that was right (when they
	// disagree, standard combining-predictor update).
	if bPred != lPred {
		p.chooser[ci] = p.chooser[ci].update(lPred == taken)
	}
	p.bimodal[bi] = p.bimodal[bi].update(taken)
	p.level2[li] = p.level2[li].update(taken)
	p.history = ((p.history << 1) | boolBit(taken)) & p.histMask
	if taken {
		p.btbInsert(pc, target)
	}
	return mispredict
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (p *Predictor) btbSet(pc memaddr.Addr) int {
	return int(uint64(pc)>>2) & (p.cfg.BTBSets - 1)
}

// btbLookup reports whether the BTB holds the correct target for pc.
func (p *Predictor) btbLookup(pc, target memaddr.Addr) bool {
	set := p.btb[p.btbSet(pc)]
	tag := uint64(pc)
	for i := range set {
		if set[i].Valid && set[i].Tag == tag {
			return set[i].Target == target
		}
	}
	return false
}

func (p *Predictor) btbInsert(pc, target memaddr.Addr) {
	idx := p.btbSet(pc)
	set := p.btb[idx]
	tag := uint64(pc)
	for i := range set {
		if set[i].Valid && set[i].Tag == tag {
			e := set[i]
			e.Target = target
			copy(set[1:i+1], set[:i])
			set[0] = e
			return
		}
	}
	e := BTBEntryState{Tag: tag, Target: target, Valid: true}
	if len(set) < p.cfg.BTBWays {
		set = append(set, BTBEntryState{})
		copy(set[1:], set[:len(set)-1])
		set[0] = e
		p.btb[idx] = set
		return
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = e
}
