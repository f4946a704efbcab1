// Package dram models main memory and the shared off-chip channel.
//
// Table 1 of the paper: the first 8-byte chunk of a block arrives 260
// cycles after the request (258 when the last-level cache is private,
// because the miss is detected without the extra shared-cache hop), each
// further chunk 4 cycles apart, with a theoretical channel limit of
// 9 GB/s for a 4.5 GHz core — i.e. 2 bytes per core cycle. All four cores
// share the channel, so co-runners genuinely delay each other; this
// congestion is what makes cache pollution expensive and is explicitly
// part of the paper's simulator ("including congestion to main memory").
package dram

import (
	"nucasim/internal/memaddr"
	"nucasim/internal/telemetry"
)

// Config describes memory timing. Zero fields select Table 1 defaults for
// a shared last-level cache; use PrivateConfig/ScaledConfig helpers for
// the other columns.
type Config struct {
	FirstChunkCycles int // cycles until the critical chunk arrives (260)
	InterChunkCycles int // cycles between subsequent chunks (4)
	ChunkBytes       int // chunk size (8)
	BlockBytes       int // block size (64)
	BytesPerCycle    int // channel bandwidth (2 = 9 GB/s at 4.5 GHz)
}

func (c Config) withDefaults() Config {
	if c.FirstChunkCycles == 0 {
		c.FirstChunkCycles = 260
	}
	if c.InterChunkCycles == 0 {
		c.InterChunkCycles = 4
	}
	if c.ChunkBytes == 0 {
		c.ChunkBytes = 8
	}
	if c.BlockBytes == 0 {
		c.BlockBytes = memaddr.BlockSize
	}
	if c.BytesPerCycle == 0 {
		c.BytesPerCycle = 2
	}
	return c
}

// SharedConfig returns Table 1 timing behind a shared L3 (260-cycle first
// chunk).
func SharedConfig() Config { return Config{}.withDefaults() }

// PrivateConfig returns Table 1 timing behind private L3 caches (258-cycle
// first chunk).
func PrivateConfig() Config {
	c := Config{}.withDefaults()
	c.FirstChunkCycles = 258
	return c
}

// ScaledConfig returns the future-technology timing of §4.5: memory access
// grows to 330 (private) / 338 (shared) cycles as the core clock shortens
// relative to wire delay.
func ScaledConfig(shared bool) Config {
	c := Config{}.withDefaults()
	if shared {
		c.FirstChunkCycles = 338
	} else {
		c.FirstChunkCycles = 330
	}
	return c
}

// chunks returns the number of chunks per block.
func (c *Config) chunks() int { return (c.BlockBytes + c.ChunkBytes - 1) / c.ChunkBytes }

// BlockLatency is the unloaded latency for a full block: first chunk plus
// the remaining chunk gaps.
func (c Config) BlockLatency() int {
	return c.FirstChunkCycles + (c.chunks()-1)*c.InterChunkCycles
}

// channelCycles is how long one block occupies the off-chip channel under
// the bandwidth cap.
func (c *Config) channelCycles() uint64 {
	return uint64((c.BlockBytes + c.BytesPerCycle - 1) / c.BytesPerCycle)
}

// Stats counts memory traffic.
type Stats struct {
	Reads        uint64
	Writebacks   uint64
	QueueCycles  uint64 // total cycles requests waited for the channel
	BusyCycles   uint64 // total channel occupancy
	LastBusyTime uint64 // cycle at which the channel last goes idle
}

// Memory is the shared main-memory channel. One instance serves all cores;
// it is not safe for concurrent use (the simulator is single-threaded).
type Memory struct {
	cfg      Config
	nextFree uint64
	Stats    Stats
	// queueHist, when attached, receives every demand read's channel
	// queueing delay (0 when the channel was idle) — the congestion
	// distribution behind the scalar QueueCycles sum. Purely
	// observational; it never changes timing.
	queueHist *telemetry.Histogram
}

// New builds a memory model; zero Config fields take Table 1 defaults.
func New(cfg Config) *Memory {
	return &Memory{cfg: cfg.withDefaults()}
}

// Config returns the active configuration.
func (m *Memory) Config() Config { return m.cfg }

// ReadBlock issues a block read at cycle now. It returns the cycle at
// which the critical (first) chunk is available to the requester and the
// cycle at which the whole block has arrived. The channel is reserved for
// the block's bandwidth share, delaying later requests.
func (m *Memory) ReadBlock(now uint64) (criticalReady, blockDone uint64) {
	start := now
	if m.nextFree > start {
		m.Stats.QueueCycles += m.nextFree - start
		start = m.nextFree
	}
	m.queueHist.Observe(start - now)
	occ := m.cfg.channelCycles()
	m.nextFree = start + occ
	m.Stats.BusyCycles += occ
	m.Stats.LastBusyTime = m.nextFree
	m.Stats.Reads++
	criticalReady = start + uint64(m.cfg.FirstChunkCycles)
	blockDone = criticalReady + uint64((m.cfg.chunks()-1)*m.cfg.InterChunkCycles)
	return criticalReady, blockDone
}

// Writeback issues a dirty-block writeback at cycle now. Writebacks are
// fire-and-forget for the core but still consume channel bandwidth, so
// they delay subsequent demand reads.
func (m *Memory) Writeback(now uint64) {
	start := now
	if m.nextFree > start {
		start = m.nextFree
	}
	occ := m.cfg.channelCycles()
	m.nextFree = start + occ
	m.Stats.BusyCycles += occ
	m.Stats.LastBusyTime = m.nextFree
	m.Stats.Writebacks++
}

// SetQueueDelayHistogram attaches (or, with nil, detaches) the demand
// read queue-delay histogram. The histogram's contents are owned by the
// telemetry registry; checkpoints restore them through RegistryState,
// not through dram.State.
func (m *Memory) SetQueueDelayHistogram(h *telemetry.Histogram) { m.queueHist = h }

// NextFree exposes the channel's next idle cycle (for tests and
// utilization reporting).
func (m *Memory) NextFree() uint64 { return m.nextFree }

// Utilization returns channel busy fraction over the given horizon.
func (m *Memory) Utilization(cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(m.Stats.BusyCycles) / float64(cycles)
}

// Reset clears channel state and statistics.
func (m *Memory) Reset() {
	m.nextFree = 0
	m.Stats = Stats{}
}

// State is the serializable mutable state of the memory channel.
type State struct {
	NextFree uint64
	Stats    Stats
}

// Snapshot captures the channel's mutable state.
func (m *Memory) Snapshot() State { return State{NextFree: m.nextFree, Stats: m.Stats} }

// Restore loads a snapshot.
func (m *Memory) Restore(s State) {
	m.nextFree = s.NextFree
	m.Stats = s.Stats
}
