package telemetry

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
)

// EpochSample is the sharing engine's state at one repartitioning
// evaluation (one "epoch" = RepartitionPeriod LLC misses). Slices are
// indexed by core. The per-core counters cover the epoch just closed,
// not the whole run.
type EpochSample struct {
	Eval  uint64 `json:"eval"`  // 1-based evaluation number
	Cycle uint64 `json:"cycle"` // simulation cycle of the decision

	Limits     []int    `json:"limits"`      // maxBlocksInSet after the decision
	ShadowHits []uint64 `json:"shadow_hits"` // gain counters at decision time
	LRUHits    []uint64 `json:"lru_hits"`    // loss counters at decision time

	Gainer      int     `json:"gainer"` // core with the best gain
	Loser       int     `json:"loser"`  // core with the smallest loss
	Gain        float64 `json:"gain"`   // normalized shadow hits of the gainer
	Loss        float64 `json:"loss"`   // LRU hits of the loser
	Transferred bool    `json:"transferred"`

	// Occupancy across all global sets at decision time.
	PrivateBlocks int `json:"private_blocks"`
	SharedBlocks  int `json:"shared_blocks"`

	// Sharing-engine activity during the epoch, summed over all sets
	// (the per-set breakdown is llc.SetStats via sim.Result.SetStats).
	EpochSwaps      uint64 `json:"epoch_swaps"`
	EpochMigrations uint64 `json:"epoch_migrations"`
	EpochDemotions  uint64 `json:"epoch_demotions"`
	EpochEvictions  uint64 `json:"epoch_evictions"`
	// EpochSteals counts evictions whose victim belonged to a core other
	// than the one filling — capacity taken from a neighbor.
	EpochSteals uint64 `json:"epoch_steals"`

	// EpochsSinceLimitChange counts consecutive evaluations (including
	// this one) since the partition limits last moved; 0 means this
	// evaluation transferred a way. A value that only grows for the rest
	// of a run is the "latched limits" signature the ROADMAP flags.
	EpochsSinceLimitChange uint64 `json:"epochs_since_limit_change"`

	// Interpolated percentiles of the LLC access-latency distribution over
	// this epoch (all cores, all outcomes), in cycles. Zero when no access
	// completed in the epoch.
	LatP50 float64 `json:"lat_p50"`
	LatP90 float64 `json:"lat_p90"`
	LatP99 float64 `json:"lat_p99"`

	// Per-core LLC activity during the epoch.
	EpochAccesses []uint64 `json:"epoch_accesses"`
	EpochMisses   []uint64 `json:"epoch_misses"`
}

// MissRate returns core c's LLC miss rate over the epoch.
func (s EpochSample) MissRate(c int) float64 {
	if c >= len(s.EpochAccesses) || s.EpochAccesses[c] == 0 {
		return 0
	}
	return float64(s.EpochMisses[c]) / float64(s.EpochAccesses[c])
}

// Clone returns a copy of s that shares none of its slices.
func (s EpochSample) Clone() EpochSample {
	s.Limits = slices.Clone(s.Limits)
	s.ShadowHits = slices.Clone(s.ShadowHits)
	s.LRUHits = slices.Clone(s.LRUHits)
	s.EpochAccesses = slices.Clone(s.EpochAccesses)
	s.EpochMisses = slices.Clone(s.EpochMisses)
	return s
}

// Ring is a bounded buffer of epoch samples: appends are O(1), memory
// grows only with the samples held, and past the capacity fixed at
// construction the oldest samples are dropped (and counted) instead. A
// nil *Ring ignores appends.
type Ring struct{ ring[EpochSample] }

// NewRing builds a ring holding at most capacity samples.
func NewRing(capacity int) *Ring {
	return &Ring{newRing[EpochSample](capacity, DefaultEpochCapacity)}
}

// Append stores s, evicting the oldest sample if the ring is full.
func (r *Ring) Append(s EpochSample) {
	if r != nil {
		r.push(s)
	}
}

// Len returns the number of samples held.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Cap returns the fixed capacity.
func (r *Ring) Cap() int {
	if r == nil {
		return 0
	}
	return r.max
}

// Dropped returns how many samples were evicted to stay within capacity.
func (r *Ring) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Since returns copies of the held samples whose Eval is greater than
// eval, oldest-first. Samples arrive in Eval order, so a streaming
// consumer can drain the ring incrementally: remember the newest Eval
// already delivered and ask for what arrived after it. Samples that were
// evicted before the consumer caught up are gone — compare the first
// returned Eval against eval+1 to detect the gap.
func (r *Ring) Since(eval uint64) []EpochSample {
	if r == nil {
		return nil
	}
	return r.from(sort.Search(len(r.buf), func(i int) bool { return r.at(i).Eval > eval }))
}

// Samples returns the held samples oldest-first, as a fresh slice.
func (r *Ring) Samples() []EpochSample {
	if r == nil {
		return nil
	}
	return r.from(0)
}

// WriteEpochCSV renders samples as CSV, one row per repartitioning
// evaluation. Per-core columns are suffixed _0.._N-1; the header derives
// the core count from the first sample.
//
// Columns: eval, cycle, gainer, loser, gain, loss, transferred,
// private_blocks, shared_blocks, swaps, migrations, demotions,
// evictions, steals, since_limit_change, lat_p50, lat_p90, lat_p99,
// then per core: limit_i, shadow_i, lru_i, acc_i, miss_i, miss_rate_i.
func WriteEpochCSV(w io.Writer, samples []EpochSample) error {
	cw := csv.NewWriter(w)
	if len(samples) == 0 {
		cw.Flush()
		return cw.Error()
	}
	cores := len(samples[0].Limits)
	header := []string{"eval", "cycle", "gainer", "loser", "gain", "loss",
		"transferred", "private_blocks", "shared_blocks",
		"swaps", "migrations", "demotions", "evictions", "steals",
		"since_limit_change", "lat_p50", "lat_p90", "lat_p99"}
	for _, col := range []string{"limit", "shadow", "lru", "acc", "miss", "miss_rate"} {
		for c := 0; c < cores; c++ {
			header = append(header, fmt.Sprintf("%s_%d", col, c))
		}
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, 0, len(header))
	for _, s := range samples {
		row = row[:0]
		row = append(row,
			strconv.FormatUint(s.Eval, 10),
			strconv.FormatUint(s.Cycle, 10),
			strconv.Itoa(s.Gainer),
			strconv.Itoa(s.Loser),
			strconv.FormatFloat(s.Gain, 'g', -1, 64),
			strconv.FormatFloat(s.Loss, 'g', -1, 64),
			strconv.FormatBool(s.Transferred),
			strconv.Itoa(s.PrivateBlocks),
			strconv.Itoa(s.SharedBlocks),
			strconv.FormatUint(s.EpochSwaps, 10),
			strconv.FormatUint(s.EpochMigrations, 10),
			strconv.FormatUint(s.EpochDemotions, 10),
			strconv.FormatUint(s.EpochEvictions, 10),
			strconv.FormatUint(s.EpochSteals, 10),
			strconv.FormatUint(s.EpochsSinceLimitChange, 10),
			strconv.FormatFloat(s.LatP50, 'g', -1, 64),
			strconv.FormatFloat(s.LatP90, 'g', -1, 64),
			strconv.FormatFloat(s.LatP99, 'g', -1, 64),
		)
		for c := 0; c < cores; c++ {
			row = append(row, strconv.Itoa(s.Limits[c]))
		}
		for c := 0; c < cores; c++ {
			row = append(row, strconv.FormatUint(s.ShadowHits[c], 10))
		}
		for c := 0; c < cores; c++ {
			row = append(row, strconv.FormatUint(s.LRUHits[c], 10))
		}
		for c := 0; c < cores; c++ {
			row = append(row, strconv.FormatUint(s.EpochAccesses[c], 10))
		}
		for c := 0; c < cores; c++ {
			row = append(row, strconv.FormatUint(s.EpochMisses[c], 10))
		}
		for c := 0; c < cores; c++ {
			row = append(row, strconv.FormatFloat(s.MissRate(c), 'g', -1, 64))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
