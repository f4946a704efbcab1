package serve

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// putEntry commits a complete, verifiable cache entry and returns the
// bytes it wrote.
func putEntry(t *testing.T, st *Store, hash string) (result, csv []byte) {
	t.Helper()
	result = []byte(`{"fake":"result for ` + hash + `"}`)
	csv = []byte("epoch,value\n1,2\n")
	if err := st.PutSpec(hash, []byte(`{"spec":"`+hash+`"}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.PutResult(hash, result, csv); err != nil {
		t.Fatal(err)
	}
	return result, csv
}

// TestStoreConcurrentReadRemove hammers one hash with concurrent
// verified reads, removals, and re-commits. The invariant under test
// (with the race detector watching the bookkeeping): a read either
// fails or returns exactly the committed bytes — a torn or
// half-removed entry never escapes as data.
func TestStoreConcurrentReadRemove(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const hash = "feedface00000000000000000000000000000000000000000000000000000000"
	want, wantCSV := putEntry(t, st, hash)

	const iters = 200
	var wg sync.WaitGroup
	wg.Add(4)
	go func() { // verified result reads
		defer wg.Done()
		for i := 0; i < iters; i++ {
			data, err := st.ReadResult(hash)
			if err == nil && !bytes.Equal(data, want) {
				t.Errorf("ReadResult returned wrong bytes: %q", data)
				return
			}
		}
	}()
	go func() { // verified CSV reads
		defer wg.Done()
		for i := 0; i < iters; i++ {
			data, err := st.readVerified(jobKind, hash, "epoch.csv")
			if err == nil && !bytes.Equal(data, wantCSV) {
				t.Errorf("ReadEpochCSV returned wrong bytes: %q", data)
				return
			}
		}
	}()
	go func() { // cache-hit probes
		defer wg.Done()
		for i := 0; i < iters; i++ {
			st.HasResult(hash)
		}
	}()
	go func() { // removal / re-commit churn
		defer wg.Done()
		for i := 0; i < iters/4; i++ {
			if err := st.remove(jobKind, hash); err != nil {
				t.Errorf("Remove: %v", err)
				return
			}
			if err := st.PutSpec(hash, []byte(`{"spec":"`+hash+`"}`)); err != nil {
				t.Errorf("PutSpec: %v", err)
				return
			}
			if err := st.PutResult(hash, want, wantCSV); err != nil {
				t.Errorf("PutResult: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestStoreConcurrentQuarantine corrupts a committed entry, then lets
// many readers discover it at once: exactly one quarantine move must
// happen, and every reader must come back empty-handed (error or
// cache miss), never with the corrupt bytes.
func TestStoreConcurrentQuarantine(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var moves int
	var mu sync.Mutex
	st.onQuarantine = func(hash, reason string) {
		mu.Lock()
		moves++
		mu.Unlock()
	}
	const hash = "deadbeef00000000000000000000000000000000000000000000000000000000"
	putEntry(t, st, hash)
	if err := os.WriteFile(st.path(jobKind, hash, "result.json"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if data, err := st.ReadResult(hash); err == nil {
				t.Errorf("corrupt read succeeded with %q", data)
			}
			if st.HasResult(hash) {
				t.Error("HasResult true for corrupt entry")
			}
		}()
	}
	wg.Wait()
	if moves != 1 {
		t.Fatalf("quarantine moved %d times, want exactly 1", moves)
	}
	entries, err := os.ReadDir(st.QuarantineDir())
	if err != nil || len(entries) != 1 {
		t.Fatalf("quarantine dir: %v entries, err %v", len(entries), err)
	}
	reason, err := os.ReadFile(filepath.Join(st.QuarantineDir(), entries[0].Name(), "REASON"))
	if err != nil || len(reason) == 0 {
		t.Fatalf("quarantined entry lacks a REASON file: %v", err)
	}
}

// TestReadVerifiedServesCoveredArtifacts: each artifact the manifest
// covers reads back as committed, and a name it does not cover (here
// the job's uncovered spans.json, present on disk) is an error with no
// bytes that leaves the entry in place.
func TestReadVerifiedServesCoveredArtifacts(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const hash = "c0ffee0000000000000000000000000000000000000000000000000000000000"
	result, csv := putEntry(t, st, hash)
	if err := st.putSpans(hash, func(w io.Writer) error { _, err := w.Write([]byte("{}")); return err }); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string][]byte{
		jobKind.marker: result,
		jobKind.data:   csv,
		specFile:       []byte(`{"spec":"` + hash + `"}`),
	} {
		got, err := st.readVerified(jobKind, hash, name)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("readVerified(%s) = %q, %v; want %q", name, got, err, want)
		}
	}
	for _, name := range []string{"spans.json", manifestFile, "checkpoint.bin"} {
		got, err := st.readVerified(jobKind, hash, name)
		var cerr *CorruptError
		if err == nil || got != nil || errors.As(err, &cerr) {
			t.Errorf("readVerified(%s) = %q, %v; want a plain error and no bytes", name, got, err)
		}
	}
	if !st.HasResult(hash) {
		t.Fatal("asking for an uncovered artifact quarantined the entry")
	}
}

// TestPendingSkipsQuarantineAndJunk covers the recovery scan's edge
// cases: quarantined directories are invisible to the scan (they live
// outside jobs/), stray non-directory files under jobs/ are ignored,
// and a spec-less directory (crash between MkdirAll and the spec
// write) is skipped as junk rather than resurrected.
func TestPendingSkipsQuarantineAndJunk(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const good = "0000000000000000000000000000000000000000000000000000000000000001"
	const bad = "0000000000000000000000000000000000000000000000000000000000000002"
	if err := st.PutSpec(good, []byte(`{"spec":"good"}`)); err != nil {
		t.Fatal(err)
	}
	putEntry(t, st, bad)
	if err := os.WriteFile(st.path(jobKind, bad, "epoch.csv"), []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Stray file and spec-less dir under jobs/.
	if err := os.WriteFile(filepath.Join(st.dir, "jobs", "stray.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(st.entryDir(jobKind, "000000000000000000000000000000000000000000000000000000000000dead"), 0o755); err != nil {
		t.Fatal(err)
	}

	// Both scans: the unfinished entry is pending and junk is skipped.
	// The first scan quarantines the corrupt entry and re-persists its
	// spec into a fresh directory, so it reruns; the second finds that
	// fresh spec-only entry pending as ordinary unfinished work and
	// never rescans the quarantined copy — quarantine is not a work
	// queue.
	for scan := 1; scan <= 2; scan++ {
		pending, err := st.pending(jobKind)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := pending[good]; !ok {
			t.Errorf("scan %d: unfinished entry missing from pending", scan)
		}
		if _, ok := pending[bad]; !ok {
			t.Errorf("scan %d: corrupt entry missing from pending (should rerun)", scan)
		}
		if len(pending) != 2 {
			t.Errorf("scan %d: pending returned %d entries, want 2: %v", scan, len(pending), pending)
		}
		if entries, err := os.ReadDir(st.QuarantineDir()); err != nil || len(entries) != 1 {
			t.Errorf("scan %d: quarantine holds %d entries (err %v), want 1", scan, len(entries), err)
		}
	}
	if _, err := os.Stat(st.path(jobKind, bad, "result.json")); !os.IsNotExist(err) {
		t.Error("re-persisted entry carries a commit marker; want spec only")
	}
}

// TestConcurrentSubmitSameSpec races identical submissions against a
// live server: every response must name the same job, exactly one
// execution happens, and the final artifact verifies.
func TestConcurrentSubmitSameSpec(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 64})
	req := smallJob(31)

	const clients = 8
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, resp := submit(t, ts, req)
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				t.Errorf("submit %d: HTTP %d", i, resp.StatusCode)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("submission %d got job %s, submission 0 got %s", i, ids[i], ids[0])
		}
	}
	waitFor(t, "job done", func() bool {
		return getStatus(t, ts, ids[0]).State == StateDone
	})
	body := fetch(t, ts.URL+"/v1/jobs/"+ids[0]+"/result", http.StatusOK)
	if len(body) == 0 {
		t.Fatal("empty result body")
	}
}
