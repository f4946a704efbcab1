package telemetry

import (
	"math"
	"runtime/metrics"
)

// RuntimeSample is one observation of the Go runtime hosting the
// simulator: live heap, goroutine count, GC cycles, and the p99 of the
// process-lifetime GC-pause and scheduler-latency histograms (seconds).
// It is wall-clock/process telemetry only, read at /metrics scrape
// time — never part of simulated state.
type RuntimeSample struct {
	HeapBytes   uint64
	Goroutines  uint64
	GCCycles    uint64
	GCPauseP99  float64
	SchedLatP99 float64
}

// The runtime/metrics names sampled. All four exist in every Go
// release this module supports; ReadRuntime tolerates absence anyway
// (KindBad leaves the field zero).
var runtimeMetricNames = []string{
	"/memory/classes/heap/objects:bytes",
	"/sched/goroutines:goroutines",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
}

// ReadRuntime takes one runtime sample immediately (used at /metrics
// scrape time).
func ReadRuntime() RuntimeSample {
	buf := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		buf[i].Name = name
	}
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
				s.GCPauseP99 = histQuantile(buf[i].Value.Float64Histogram(), 0.99)
			}
		case "/sched/latencies:seconds":
			if buf[i].Value.Kind() == metrics.KindFloat64Histogram {
				s.SchedLatP99 = histQuantile(buf[i].Value.Float64Histogram(), 0.99)
			}
		}
	}
	return s
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
