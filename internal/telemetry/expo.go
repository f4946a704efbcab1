package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// MetricsSnapshot is one coherent view of everything an exporter wants
// to publish: registry instruments plus whatever scrape-time values the
// exporter derives on the spot. Both kinds render through the single
// WriteMetrics path, so registry gauges and ad-hoc gauges can no longer
// drift apart (they used to live in two differently-typed maps, and the
// registry ones were silently dropped).
type MetricsSnapshot struct {
	Counters   map[string]uint64
	Gauges     map[string]float64
	Histograms map[string]HistogramSnapshot
	// Infos maps a metric name to a constant label set rendered as a
	// gauge with value 1 — the Prometheus info-metric idiom
	// (`build_info{version="...",go_version="..."} 1`). Label values are
	// escaped; label names must already be legal label identifiers.
	Infos map[string]map[string]string
	// Help optionally maps a metric's raw (pre-sanitization) name to its
	// `# HELP` text; entries here override the package defaults in
	// MetricHelp.
	Help map[string]string
}

// Metrics snapshots the registry's counters, gauges and histograms into
// one MetricsSnapshot; exporters add their scrape-time values on top and
// hand the result to WriteMetrics.
func (r *Registry) Metrics() MetricsSnapshot {
	s := MetricsSnapshot{Counters: r.Counters()}
	if r == nil {
		return s
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = float64(g.Value())
		}
	}
	s.Histograms = r.Histograms()
	return s
}

// MetricHelp is the default `# HELP` text for the instruments the
// simulator and the job server register. Exporters may override or
// extend it per snapshot via MetricsSnapshot.Help.
var MetricHelp = map[string]string{
	"adaptive.shared_swaps":        "Hits in the shared partition that swapped the block into the requester's private partition.",
	"adaptive.neighbor_migrations": "Hits in a neighbor's private partition that migrated the block to the requester.",
	"adaptive.demotions":           "Private-LRU blocks demoted into the shared partition.",
	"adaptive.evictions":           "Shared-partition blocks evicted to memory by Algorithm 1.",
	"dram.queue_delay":             "Cycles a demand read waited for the DRAM channel to become free.",
	"hierarchy.load_latency":       "End-to-end data-load latency in cycles, from TLB access to data return.",
	"serve.job_queue_wait_us":      "Microseconds a job waited in the queue before a worker picked it up.",
	"serve.job_run_us":             "Microseconds a worker spent running a job's simulation.",
	"serve.queue_depth":            "Jobs waiting in the queue right now.",
	"serve.workers_busy":           "Workers currently running a job.",
	"serve.queue_depth_high_water": "Deepest queue observed at any job submission since process start.",
	"telemetry.profiles_written":   "CPU/heap pprof artifacts this process has written.",
	"nucaserve.build_info":         "Build metadata as constant labels; value is always 1.",
	"go.goroutines":                "Live goroutines in the serving process.",
	"go.heap_bytes":                "Bytes of live heap objects in the serving process.",
	"go.gc_cycles":                 "Completed GC cycles since process start.",
	"go.gc_pause_p99_seconds":      "99th-percentile GC stop-the-world pause since process start.",
	"go.sched_latency_p99_seconds": "99th-percentile goroutine scheduling latency since process start.",
}

// helpFor resolves the HELP text for a raw metric name: the snapshot's
// override first, the package defaults next, and a generated fallback so
// every family always carries a `# HELP`/`# TYPE` pair (the exposition
// linter enforces the pairing).
func (m MetricsSnapshot) helpFor(name, kind string) string {
	if h, ok := m.Help[name]; ok {
		return h
	}
	if h, ok := MetricHelp[name]; ok {
		return h
	}
	return fmt.Sprintf("%s %s.", strings.ReplaceAll(name, ".", " "), kind)
}

// WriteMetrics renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): families sorted by name within each kind,
// every family prefixed with `# HELP` and `# TYPE`, names sanitized so
// registry dots become underscores. Histograms emit cumulative
// `_bucket{le="..."}` series over the power-of-two bounds (empty buckets
// elided, `+Inf` always present), then `_sum` and `_count`.
func WriteMetrics(w io.Writer, m MetricsSnapshot) error {
	for _, name := range sortedKeys(m.Counters) {
		n := MetricName(name)
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			n, m.helpFor(name, "counter"), n, n, m.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(m.Gauges) {
		n := MetricName(name)
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n",
			n, m.helpFor(name, "gauge"), n, n, m.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(m.Infos) {
		n := MetricName(name)
		labels := m.Infos[name]
		var b strings.Builder
		for i, k := range sortedKeys(labels) {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s=%q", MetricName(k), labels[k])
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s{%s} 1\n",
			n, m.helpFor(name, "info"), n, n, b.String()); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(m.Histograms) {
		h := m.Histograms[name]
		n := MetricName(name)
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n",
			n, m.helpFor(name, "histogram"), n); err != nil {
			return err
		}
		cum := uint64(0)
		for _, b := range h.Buckets {
			cum += b.Count
			if b.Le == math.MaxUint64 {
				continue // the unbounded bucket renders as +Inf below
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", n, b.Le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			n, h.Count, n, h.Sum, n, h.Count); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// MetricName maps a registry instrument name ("adaptive.shared_swaps")
// onto the exposition alphabet [a-zA-Z0-9_:]: every other rune becomes
// an underscore, and a leading digit is prefixed with one.
func MetricName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if r >= '0' && r <= '9' && i == 0 {
			b.WriteByte('_')
			ok = true
		}
		if !ok {
			b.WriteByte('_')
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}
