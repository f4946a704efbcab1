package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

// TestWriteMetricsUnified renders registry instruments and scrape-time
// gauges through the single exposition path and checks the output lints
// clean, keeps the plain `name value` counter form, and carries full
// histogram series.
func TestWriteMetricsUnified(t *testing.T) {
	var r Registry
	r.Counter("serve.cache_hits").Inc()
	r.Gauge("partition.shared").Set(28)
	h := r.Histogram("llc.c0.latency.local_hit")
	for i := 0; i < 10; i++ {
		h.Observe(14)
	}
	h.Observe(300)

	snap := r.Metrics()
	if snap.Gauges["partition.shared"] != 28 {
		t.Fatalf("registry gauge lost in Metrics(): %v", snap.Gauges)
	}
	if snap.Gauges == nil {
		snap.Gauges = map[string]float64{}
	}
	snap.Gauges["serve.queue_depth"] = 3 // scrape-time gauge joins the same map

	var buf bytes.Buffer
	if err := WriteMetrics(&buf, snap); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"serve_cache_hits 1\n", // the exact form servesmoke greps for
		"# TYPE serve_cache_hits counter",
		"# HELP serve_cache_hits",
		"# TYPE partition_shared gauge",
		"partition_shared 28\n",
		"serve_queue_depth 3\n",
		"# TYPE llc_c0_latency_local_hit histogram",
		`llc_c0_latency_local_hit_bucket{le="15"} 10`,
		`llc_c0_latency_local_hit_bucket{le="511"} 11`,
		`llc_c0_latency_local_hit_bucket{le="+Inf"} 11`,
		"llc_c0_latency_local_hit_sum 440\n",
		"llc_c0_latency_local_hit_count 11\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}

	if errs := LintExposition(strings.NewReader(out)); len(errs) != 0 {
		t.Fatalf("own exposition fails lint: %v\n%s", errs, out)
	}

	// A counters-and-gauges snapshot of plain maps renders lint-clean.
	buf.Reset()
	if err := WriteMetrics(&buf, MetricsSnapshot{Counters: map[string]uint64{"a.b": 7}, Gauges: map[string]float64{"c.d": 1.5}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "a_b 7\n") || !strings.Contains(buf.String(), "c_d 1.5\n") {
		t.Fatalf("counters-and-gauges output: %s", buf.String())
	}
	if errs := LintExposition(bytes.NewReader(buf.Bytes())); len(errs) != 0 {
		t.Fatalf("counters-and-gauges exposition fails lint: %v", errs)
	}
}

func TestLintExpositionCatchesViolations(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"empty", "", "empty"},
		{"sample without type", "foo 1\n", "no TYPE"},
		{"type without help", "# TYPE foo counter\nfoo 1\n", "no preceding HELP"},
		{"duplicate type", "# HELP foo x\n# TYPE foo counter\n# TYPE foo counter\nfoo 1\n", "duplicate TYPE"},
		{"bad value", "# HELP foo x\n# TYPE foo gauge\nfoo abc\n", "non-numeric"},
		{"malformed sample", "# HELP foo x\n# TYPE foo counter\nfoo{ 1\n", "malformed sample"},
		{
			"buckets not cumulative",
			"# HELP h x\n# TYPE h histogram\n" +
				"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n",
			"not cumulative",
		},
		{
			"le out of order",
			"# HELP h x\n# TYPE h histogram\n" +
				"h_bucket{le=\"4\"} 1\nh_bucket{le=\"2\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n",
			"out of order",
		},
		{
			"missing +Inf",
			"# HELP h x\n# TYPE h histogram\nh_bucket{le=\"4\"} 1\nh_sum 3\nh_count 1\n",
			"+Inf",
		},
		{
			"count mismatch",
			"# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 5\n",
			"_count 5 != +Inf bucket 2",
		},
		{
			"missing sum",
			"# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 2\n",
			"lacks _sum",
		},
	}
	for _, c := range cases {
		errs := LintExposition(strings.NewReader(c.in))
		found := false
		for _, err := range errs {
			if strings.Contains(err.Error(), c.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: want an error containing %q, got %v", c.name, c.want, errs)
		}
	}

	clean := "# HELP ok fine\n# TYPE ok counter\nok 3\n" +
		"# HELP h x\n# TYPE h histogram\n" +
		"h_bucket{le=\"7\"} 2\nh_bucket{le=\"+Inf\"} 4\nh_sum 100\nh_count 4\n"
	if errs := LintExposition(strings.NewReader(clean)); len(errs) != 0 {
		t.Fatalf("clean exposition flagged: %v", errs)
	}
}
