// Command servesmoke is the CI smoke test for nucaserve: it drives a
// real server binary over HTTP through the full job lifecycle and
// proves the two properties the service exists for —
//
//  1. submit → run → result, with the status endpoint reporting live
//     progress along the way;
//  2. a server restart answers the same submission from the
//     content-addressed cache, byte-for-byte, without simulating;
//
// and that SIGTERM produces a clean (exit 0) drain both times. The
// round-1 /metrics scrape (after the job completes, so the simulation
// histograms have been merged in) must carry the Prometheus text
// Content-Type, pass the exposition linter, and expose at least three
// histogram families.
//
//	servesmoke -bin /tmp/nucaserve
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"nucasim/internal/serve"
	"nucasim/internal/telemetry"
	"nucasim/internal/tools/smoke"
)

const jobSpec = `{
	"scheme": "adaptive",
	"apps": ["ammp", "swim"],
	"seed": 1,
	"warmup_instructions": 200000,
	"warmup_cycles": 20000,
	"measure_cycles": 150000
}`

func main() {
	bin := flag.String("bin", "/tmp/nucaserve", "path to the nucaserve binary under test")
	flag.Parse()

	work, err := os.MkdirTemp("", "servesmoke-*")
	if err != nil {
		smoke.Fatal(err)
	}
	defer os.RemoveAll(work)
	state := filepath.Join(work, "state")

	// Round 1: cold cache. The job must actually run.
	base := smoke.Start(*bin, state, filepath.Join(work, "addr1"))
	id, status := smoke.Submit(base, []byte(jobSpec))
	if status != http.StatusAccepted {
		smoke.Fatal(fmt.Errorf("cold submit: HTTP %d, want 202", status))
	}
	smoke.AwaitDone(base, id, 60*time.Second)
	first := smoke.Get(base+"/v1/jobs/"+id+"/result", http.StatusOK)
	if !json.Valid(first) {
		smoke.Fatal(fmt.Errorf("result is not valid JSON"))
	}
	if csv := smoke.Get(base+"/v1/jobs/"+id+"/result?artifact=epochs", http.StatusOK); !strings.HasPrefix(string(csv), "eval,") {
		smoke.Fatal(fmt.Errorf("epoch artifact does not look like the epoch CSV"))
	}
	// Round 1 is the only valid scrape point for the histogram checks:
	// the round-2 process answers from the cache and never merges
	// simulation histograms into its registry.
	checkMetrics(base)
	smoke.Stop()

	// Round 2: warm cache, fresh process. The same submission must be
	// answered from disk, byte-identical, and marked cached.
	base = smoke.Start(*bin, state, filepath.Join(work, "addr2"))
	id2, status := smoke.Submit(base, []byte(jobSpec))
	if status != http.StatusOK {
		smoke.Fatal(fmt.Errorf("warm submit: HTTP %d, want 200 (cache hit)", status))
	}
	if id2 != id {
		smoke.Fatal(fmt.Errorf("content address changed across restarts: %s vs %s", id, id2))
	}
	if st := smoke.JobStatus(base, id); st.State != serve.StateDone || !st.Cached {
		smoke.Fatal(fmt.Errorf("warm status = %+v, want done+cached", st))
	}
	second := smoke.Get(base+"/v1/jobs/"+id+"/result", http.StatusOK)
	if !bytes.Equal(first, second) {
		smoke.Fatal(fmt.Errorf("cached result differs from the originally computed one (%d vs %d bytes)", len(second), len(first)))
	}
	if metrics := smoke.Get(base+"/metrics", http.StatusOK); !bytes.Contains(metrics, []byte("serve_cache_hits 1")) {
		smoke.Fatal(fmt.Errorf("/metrics does not report the cache hit:\n%s", metrics))
	}
	smoke.Stop()

	fmt.Println("servesmoke ok: lifecycle, restart cache hit byte-identical, clean SIGTERM drains")
}

// checkMetrics scrapes /metrics after a completed job and asserts the
// exposition is consumable by a real Prometheus scraper: correct
// Content-Type, lint-clean text format, and the merged simulation
// histograms actually present.
func checkMetrics(base string) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		smoke.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		smoke.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		smoke.Fatal(fmt.Errorf("GET /metrics: HTTP %d, want 200", resp.StatusCode))
	}
	ct := resp.Header.Get("Content-Type")
	if !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		smoke.Fatal(fmt.Errorf("/metrics Content-Type = %q, want text/plain; version=0.0.4", ct))
	}
	if errs := telemetry.LintExposition(bytes.NewReader(body)); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "servesmoke: lint:", e)
		}
		smoke.Fatal(fmt.Errorf("/metrics fails exposition lint (%d problems)", len(errs)))
	}
	if n := strings.Count(string(body), " histogram\n"); n < 3 {
		smoke.Fatal(fmt.Errorf("/metrics exposes %d histogram families, want >= 3:\n%s", n, body))
	}
}
