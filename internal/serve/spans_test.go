package serve

import (
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"testing"
)

// decodeSpanTrace decodes a Chrome trace-event JSON document and
// returns the B-phase span-name counts.
func decodeSpanTrace(t *testing.T, data []byte) map[string]int {
	t.Helper()
	var f struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("span trace does not decode: %v", err)
	}
	counts := make(map[string]int)
	for _, ev := range f.TraceEvents {
		if ev.Ph == "B" {
			counts[ev.Name]++
		}
	}
	return counts
}

// TestJobSpansEndpoint: a completed job serves its span tree — job
// lifecycle spans, serve phases, and the simulation phases nested under
// serve.run — both from the committed spans.json artifact and over
// GET /v1/jobs/{id}/spans, and its Status carries the trace ID.
func TestJobSpansEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	st, _ := submit(t, ts, smallJob(401))
	if st.TraceID != st.ID {
		t.Errorf("trace_id %q != job id %q", st.TraceID, st.ID)
	}
	if st.QueueDepthAtSubmit != 1 {
		t.Errorf("queue_depth_at_submit = %d, want 1", st.QueueDepthAtSubmit)
	}
	waitFor(t, "job done", func() bool { return getStatus(t, ts, st.ID).State == StateDone })

	data := fetch(t, ts.URL+"/v1/jobs/"+st.ID+"/spans", 200)
	counts := decodeSpanTrace(t, data)
	for _, name := range []string{"job", "queue.wait", "serve.run", "serve.encode",
		"serve.cache_commit", "sim.run", "sim.warmup_functional", "sim.measure"} {
		if counts[name] == 0 {
			t.Errorf("span %q missing from /spans (got %v)", name, counts)
		}
	}

	// The endpoint served the committed artifact, which sits next to the
	// other job files and is byte-identical to the HTTP response.
	onDisk, err := os.ReadFile(s.Store().spansPath(st.ID))
	if err != nil {
		t.Fatalf("spans.json artifact missing: %v", err)
	}
	if string(onDisk) != string(data) {
		t.Error("/spans response differs from the spans.json artifact")
	}

	// Unknown jobs 404.
	fetch(t, ts.URL+"/v1/jobs/nope/spans", 404)
}

// TestJobSpansLiveRender: before the artifact exists (job still
// running), /spans serves a live render of whatever has completed.
func TestJobSpansLiveRender(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	st, _ := submit(t, ts, longJob(402))
	waitFor(t, "job running", func() bool { return getStatus(t, ts, st.ID).State == StateRunning })
	data := fetch(t, ts.URL+"/v1/jobs/"+st.ID+"/spans", 200)
	counts := decodeSpanTrace(t, data)
	// queue.wait has ended by the time the job runs; the root and the run
	// span are still open, so they are absent from the flight recorder.
	if counts["queue.wait"] == 0 {
		t.Errorf("live render misses queue.wait: %v", counts)
	}
	if counts["job"] != 0 {
		t.Errorf("live render shows the still-open root span: %v", counts)
	}
	// Cancel so Cleanup's drain does not sit out the long run.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job terminal", func() bool { return getStatus(t, ts, st.ID).State.terminal() })
}

// TestQueueHighWaterMetric: the all-time FIFO high-water mark survives
// the queue draining back to empty.
func TestQueueHighWaterMetric(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	st1, _ := submit(t, ts, longJob(403))
	waitFor(t, "first job running", func() bool { return getStatus(t, ts, st1.ID).State == StateRunning })
	st2, _ := submit(t, ts, smallJob(404)) // queued behind the long job
	st3, _ := submit(t, ts, smallJob(405))
	if st2.QueueDepthAtSubmit != 1 || st3.QueueDepthAtSubmit != 2 {
		t.Errorf("queue_depth_at_submit = %d, %d; want 1, 2",
			st2.QueueDepthAtSubmit, st3.QueueDepthAtSubmit)
	}
	// Cancel the long job so the test finishes fast; the high-water mark
	// must survive the queue draining back to empty.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st1.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "all jobs terminal", func() bool {
		for _, id := range []string{st1.ID, st2.ID, st3.ID} {
			if !getStatus(t, ts, id).State.terminal() {
				return false
			}
		}
		return true
	})
	metrics := string(fetch(t, ts.URL+"/metrics", 200))
	if !strings.Contains(metrics, "serve_queue_depth_high_water 2") {
		t.Error("metrics missing serve_queue_depth_high_water 2")
	}
	for _, name := range []string{"nucaserve_build_info{", "go_goroutines ", "go_heap_bytes "} {
		if !strings.Contains(metrics, name) {
			t.Errorf("metrics missing %q", name)
		}
	}
}
