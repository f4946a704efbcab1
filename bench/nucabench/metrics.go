package main

import (
	"fmt"
	"math"
)

// metricDef names one metric and its unit. The lists below are what
// BENCHMARK.json declares; the smoke test holds the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator or the service sees,
// reported with tracing off. An "op" is one sim.Run (table1, warmup),
// one eight-point sweep.RunLocal (sweep), or one HTTP request from its
// due time to the result bytes (serve).
var endToEnd = []metricDef{
	{"setup_s", "s"},                 // fresh process → ready to time the first op, median of 3
	{"op_ms_p50", "ms"},              // median op latency
	{"op_ms_p80", "ms"},              // 80th-percentile op latency (≥50 ops per run)
	{"sim_minstr_per_s", "Minstr/s"}, // simulated instructions per second of op time
	{"alloc_mb_per_op", "MB"},        // heap bytes allocated per op
	{"peak_rss_mb", "MB"},            // process peak resident set
}

// perLayer are the traced run's metrics. Counts and ns are per traced op
// and per call; shares are fractions of the traced op wall (or, for
// share.*, of CPU-profile samples of untraced ops).
var perLayer = []metricDef{
	{"trace.op_ms", "ms"},
	{"trace.overhead_x", "x"},
	{"trace.clock_pair_ns", "ns"},
	{"trace.residual_share", "ratio"},
	{"workload.next_ns", "ns"},
	{"workload.instr_per_op", "count"},
	{"workload.est_share", "ratio"},
	{"cpu.step_calls", "count"},
	{"cpu.step_self_ns", "ns"},
	{"cpu.warm_self_ns_per_instr", "ns"},
	{"cpu.self_share", "ratio"},
	{"cpu.dispatch_stall_frac", "ratio"},
	{"cpu.ipc_hm", "ipc"},
	{"hierarchy.port_calls", "count"},
	{"hierarchy.port_self_ns", "ns"},
	{"hierarchy.self_share", "ratio"},
	{"hierarchy.l1d_miss_rate", "ratio"},
	{"hierarchy.l2d_miss_rate", "ratio"},
	{"hierarchy.dtlb_miss_rate", "ratio"},
	{"llc.access_calls", "count"},
	{"llc.access_ns", "ns"},
	{"llc.writeback_calls", "count"},
	{"llc.writeback_ns", "ns"},
	{"llc.self_share", "ratio"},
	{"llc.miss_rate", "ratio"},
	{"llc.remote_hit_frac", "ratio"},
	{"llc.evaluations", "count"},
	{"llc.repartitions", "count"},
	{"dram.reads", "count"},
	{"dram.writebacks", "count"},
	{"dram.queue_cycles_per_read", "cycles"},
	{"dram.utilization", "ratio"},
	{"sim.new_machine_ms", "ms"},
	{"sim.warm_ns_per_instr", "ns"},
	{"sim.cycle_ns", "ns"},
	{"checkpoint.warmup_share", "ratio"},
	{"checkpoint.encode_share", "ratio"},
	{"checkpoint.decode_share", "ratio"},
	{"checkpoint.resume_share", "ratio"},
	{"checkpoint.bytes", "bytes"},
	{"checkpoint.decode_alloc_mb", "MB"},
	{"sweep.points", "count"},
	{"sweep.warmups_run", "count"},
	{"sweep.forked", "count"},
	{"serve.store_put_ms", "ms"},
	{"serve.store_read_ms", "ms"},
	{"serve.recover_ms", "ms"},
	{"serve.cache_hits", "count"},
	{"serve.jobs_deduped", "count"},
	{"serve.jobs_submitted", "count"},
	{"serve.queue_wait_share", "ratio"},
	{"serve.run_share", "ratio"},
	{"http.ttfb_share", "ratio"},
	{"loadgen.late_share", "ratio"},
	{"share.workload", "ratio"},
	{"share.rng", "ratio"},
	{"share.cpu", "ratio"},
	{"share.bpred", "ratio"},
	{"share.hierarchy", "ratio"},
	{"share.cache", "ratio"},
	{"share.tlb", "ratio"},
	{"share.llc", "ratio"},
	{"share.core", "ratio"},
	{"share.dram", "ratio"},
	{"share.sim", "ratio"},
	{"share.telemetry", "ratio"},
	{"share.serve", "ratio"},
	{"share.runtime", "ratio"},
	{"share.other", "ratio"},
}

// metrics collects values by name while a run fills them in.
type metrics map[string]float64

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render checks that m holds exactly the metrics of defs, each a finite
// number, and attaches their units.
func render(m metrics, defs []metricDef) (map[string]Metric, error) {
	out := make(map[string]Metric, len(defs))
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = Metric{Value: v, Unit: d.unit}
	}
	if len(m) != len(defs) {
		for name := range m {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	return out, nil
}

// isTime reports a unit of wall-clock time. Time metrics are measured on
// every workload; only counts, sizes and shares may read zero.
func isTime(unit string) bool { return unit == "s" || unit == "ms" || unit == "ns" }

// zeroFill sets every declared count, size or share that is still unset
// to zero: a layer the workload does not exercise reads as zero calls
// and zero share. Time metrics are left for render to report as missing.
func zeroFill(m metrics, defs []metricDef) {
	for _, d := range defs {
		if _, ok := m[d.name]; !ok && !isTime(d.unit) {
			m[d.name] = 0
		}
	}
}
