package telemetry

import (
	"math"
	"runtime/metrics"
)

// RuntimeSample is one observation of the Go runtime hosting the
// simulator: live heap, goroutine count, GC cycles, and tail quantiles
// of the process-lifetime GC-pause and scheduler-latency histograms.
// It is wall-clock/process telemetry only — never part of simulated
// state, never checkpointed, and zeroed out of cached service results.
type RuntimeSample struct {
	// Eval tags the sample with the repartition evaluation it was taken
	// at (0 for scrape-time samples).
	Eval        uint64  `json:"eval"`
	HeapBytes   uint64  `json:"heap_bytes"`
	Goroutines  uint64  `json:"goroutines"`
	GCCycles    uint64  `json:"gc_cycles"`
	GCPauseP50  float64 `json:"gc_pause_p50_s"`
	GCPauseP99  float64 `json:"gc_pause_p99_s"`
	SchedLatP50 float64 `json:"sched_lat_p50_s"`
	SchedLatP99 float64 `json:"sched_lat_p99_s"`
}

// The runtime/metrics names sampled. All four exist in every Go
// release this module supports; readRuntime tolerates absence anyway
// (KindBad leaves the field zero).
var runtimeMetricNames = []string{
	"/memory/classes/heap/objects:bytes",
	"/sched/goroutines:goroutines",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
}

func newRuntimeSampleBuf() []metrics.Sample {
	buf := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		buf[i].Name = name
	}
	return buf
}

func readRuntime(buf []metrics.Sample) RuntimeSample {
	metrics.Read(buf)
	var s RuntimeSample
	for i := range buf {
		switch buf[i].Name {
		case "/memory/classes/heap/objects:bytes":
			if buf[i].Value.Kind() == metrics.KindUint64 {
				s.HeapBytes = buf[i].Value.Uint64()
			}
		case "/sched/goroutines:goroutines":
			if buf[i].Value.Kind() == metrics.KindUint64 {
				s.Goroutines = buf[i].Value.Uint64()
			}
		case "/gc/cycles/total:gc-cycles":
			if buf[i].Value.Kind() == metrics.KindUint64 {
				s.GCCycles = buf[i].Value.Uint64()
			}
		case "/gc/pauses:seconds":
			if buf[i].Value.Kind() == metrics.KindFloat64Histogram {
				h := buf[i].Value.Float64Histogram()
				s.GCPauseP50 = histQuantile(h, 0.50)
				s.GCPauseP99 = histQuantile(h, 0.99)
			}
		case "/sched/latencies:seconds":
			if buf[i].Value.Kind() == metrics.KindFloat64Histogram {
				h := buf[i].Value.Float64Histogram()
				s.SchedLatP50 = histQuantile(h, 0.50)
				s.SchedLatP99 = histQuantile(h, 0.99)
			}
		}
	}
	return s
}

// ReadRuntime takes one runtime sample immediately (used at /metrics
// scrape time). For per-epoch sampling use a RuntimeRing, which reuses
// its read buffer.
func ReadRuntime() RuntimeSample {
	return readRuntime(newRuntimeSampleBuf())
}

// histQuantile returns the upper bound of the bucket holding the q-th
// quantile of a runtime/metrics histogram (counts are cumulative over
// process lifetime). Unbounded tail buckets fall back to their finite
// lower bound.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			// Bucket i spans Buckets[i]..Buckets[i+1].
			hi := h.Buckets[i+1]
			if math.IsInf(hi, +1) {
				return h.Buckets[i]
			}
			return hi
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// RuntimeRing is a bounded ring of runtime samples, one per repartition
// epoch. Single-writer (the simulation goroutine), like the epoch ring;
// Samples() is for end-of-run collection.
type RuntimeRing struct {
	ring[RuntimeSample]
	scratch []metrics.Sample
}

// DefaultRuntimeCapacity bounds the runtime-sample ring.
const DefaultRuntimeCapacity = 1024

// NewRuntimeRing builds a ring holding up to capacity samples
// (DefaultRuntimeCapacity if capacity <= 0).
func NewRuntimeRing(capacity int) *RuntimeRing {
	return &RuntimeRing{
		ring:    newRing[RuntimeSample](capacity, DefaultRuntimeCapacity),
		scratch: newRuntimeSampleBuf(),
	}
}

// Sample reads the runtime once and appends the observation tagged with
// eval, overwriting the oldest when full. Nil-safe.
func (r *RuntimeRing) Sample(eval uint64) {
	if r == nil {
		return
	}
	s := readRuntime(r.scratch)
	s.Eval = eval
	r.push(s)
}

// Len returns the number of samples held.
func (r *RuntimeRing) Len() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Samples returns a copy of the held samples, oldest first.
func (r *RuntimeRing) Samples() []RuntimeSample {
	if r == nil {
		return nil
	}
	return r.from(0)
}
