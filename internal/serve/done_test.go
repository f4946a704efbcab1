package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"testing"

	"nucasim/internal/telemetry"
)

// gateRuns makes s's workers wait before simulating until release is
// called, so a test can attach to a job before it runs. Release also
// runs at cleanup, ahead of the server's shutdown.
func gateRuns(t *testing.T, s *Server) (release func()) {
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	s.testHookRun = func(*Job) { <-gate }
	t.Cleanup(release)
	return release
}

// openEvents attaches to the job's event stream and reads its first
// line, a status event: by then the handler has captured the job's
// epoch ring.
func openEvents(t *testing.T, ts *httptest.Server, id string) (*bufio.Scanner, Status) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Fatalf("events Content-Type = %q", got)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	statuses, epochs := readEvents(t, sc, 1)
	if len(statuses) != 1 || len(epochs) != 0 {
		t.Fatalf("first event line is not a status")
	}
	return sc, statuses[0]
}

// readEvents reads up to max event lines (all remaining lines when
// max <= 0) and splits them into status and epoch payloads.
func readEvents(t *testing.T, sc *bufio.Scanner, max int) (statuses []Status, epochs []telemetry.EpochSample) {
	t.Helper()
	for n := 0; (max <= 0 || n < max) && sc.Scan(); n++ {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "status":
			statuses = append(statuses, *ev.Status)
		case "epoch":
			epochs = append(epochs, *ev.Epoch)
		default:
			t.Fatalf("unknown event type %q", ev.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return statuses, epochs
}

// finalOnly checks that a whole stream was one done status and nothing
// else.
func finalOnly(t *testing.T, what string, ts *httptest.Server, id string) {
	t.Helper()
	sc, st := openEvents(t, ts, id)
	statuses, epochs := readEvents(t, sc, 0)
	if st.State != StateDone || len(statuses) != 0 || len(epochs) != 0 {
		t.Errorf("%s: stream opened in %q, then %d more status and %d epoch lines; want one done status only",
			what, st.State, len(statuses), len(epochs))
	}
}

// TestDoneJobContract pins what a finished job still answers once it
// holds no telemetry: a stream attached before the run carries every
// epoch, a stream opened afterwards (fresh or cache-loaded record) gets
// the final status only, and /spans serves spans.json or 404.
func TestDoneJobContract(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{StateDir: dir, Workers: 1})
	release := gateRuns(t, s)

	st, _ := submit(t, ts, smallJob(501))
	live, _ := openEvents(t, ts, st.ID)
	release()
	statuses, epochs := readEvents(t, live, 0)
	if n := len(statuses); n == 0 || statuses[n-1].State != StateDone {
		t.Fatalf("live stream did not end in done: %+v", statuses)
	}
	if len(epochs) == 0 {
		t.Fatal("live stream carried no epochs")
	}
	for i, e := range epochs {
		if e.Eval != uint64(i+1) {
			t.Fatalf("epoch %d has eval %d; want evals 1..N without a gap", i, e.Eval)
		}
	}
	csvRows := bytes.Count(fetch(t, ts.URL+"/v1/jobs/"+st.ID+"/result?artifact=epochs", http.StatusOK), []byte("\n")) - 1
	if len(epochs) != csvRows {
		t.Errorf("live stream carried %d epochs, epoch.csv has %d data rows", len(epochs), csvRows)
	}
	if got := getStatus(t, ts, st.ID).EpochsSeen; got != len(epochs) {
		t.Errorf("epochs_seen = %d, want %d", got, len(epochs))
	}

	j := mustJob(t, s, st.ID)
	j.mu.Lock()
	holds := j.spans != nil || j.epochs != nil
	j.mu.Unlock()
	if holds {
		t.Error("committed job still holds its span recorder or epoch ring")
	}
	finalOnly(t, "done job", ts, st.ID)
	onDisk, err := os.ReadFile(s.Store().spansPath(st.ID))
	if err != nil {
		t.Fatalf("spans.json artifact missing: %v", err)
	}
	if got := fetch(t, ts.URL+"/v1/jobs/"+st.ID+"/spans", http.StatusOK); !bytes.Equal(got, onDisk) {
		t.Error("/spans of the done job differs from spans.json")
	}

	// A fresh server over the same directory answers from the cache.
	s2, ts2 := newTestServer(t, Options{StateDir: dir, Workers: 1})
	if st2, _ := submit(t, ts2, smallJob(501)); !st2.Cached {
		t.Fatalf("resubmission on a fresh server not cached: %+v", st2)
	}
	j2 := mustJob(t, s2, st.ID)
	j2.mu.Lock()
	holds = j2.spans != nil || j2.epochs != nil
	j2.mu.Unlock()
	if holds {
		t.Error("cache-loaded job holds a span recorder or epoch ring")
	}
	finalOnly(t, "cache-loaded job", ts2, st.ID)
	if err := os.Remove(s2.Store().spansPath(st.ID)); err != nil {
		t.Fatal(err)
	}
	fetch(t, ts2.URL+"/v1/jobs/"+st.ID+"/spans", http.StatusNotFound)
}

// liveHeap returns the heap still reachable after a full collection.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestRetainedMemoryPerJob caps what a long-running server keeps per
// finished job: the record only, neither telemetry ring nor recorder.
func TestRetainedMemoryPerJob(t *testing.T) {
	const (
		jobs   = 50
		perJob = 64 << 10
	)
	tiny := func(i int) JobRequest {
		r := smallJob(uint64(600 + i))
		r.WarmupInstructions, r.WarmupCycles, r.MeasureCycles = 20_000, 0, 20_000
		return r
	}
	runAll := func(s *Server, from, to int) {
		t.Helper()
		var js []*Job
		for i := from; i < to; i++ {
			j, _, err := s.Submit(tiny(i))
			if err != nil {
				t.Fatal(err)
			}
			js = append(js, j)
		}
		for _, j := range js {
			waitFor(t, "job "+j.ID+" done", func() bool { return s.Status(j).State == StateDone })
		}
	}
	check := func(what string, before uint64) {
		t.Helper()
		after := liveHeap()
		grown := int64(after) - int64(before)
		t.Logf("%s: heap %+d B over %d jobs (%+d B/job)", what, grown, jobs, grown/jobs)
		if grown > jobs*perJob {
			t.Errorf("%s: live heap grew %d B over %d jobs, more than %d B per job", what, grown, jobs, perJob)
		}
	}

	dir := t.TempDir()
	s, _ := newTestServer(t, Options{StateDir: dir, Workers: 2})
	runAll(s, 0, 1) // first run builds process-wide tables; keep them out of the delta
	before := liveHeap()
	runAll(s, 1, jobs+1)
	check("fresh jobs", before)

	s2, _ := newTestServer(t, Options{StateDir: dir, Workers: 2})
	runAll(s2, 0, 1)
	before = liveHeap()
	runAll(s2, 1, jobs+1)
	if got := counter(s2, "serve.cache_hits"); got != jobs+1 {
		t.Fatalf("serve.cache_hits = %d, want %d", got, jobs+1)
	}
	check("cache-loaded records", before)
}
