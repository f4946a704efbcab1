package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

func TestSpanNesting(t *testing.T) {
	r := NewSpanRecorder(SpanConfig{})
	root := r.StartSpan("root", 0)
	child := r.StartSpan("child", root.ID())
	grand := r.StartSpan("grand", child.ID())
	grand.SetDetail(42)
	grand.End()
	child.End()
	root.End()

	recs := r.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	byName := make(map[string]SpanRecord)
	for _, rec := range recs {
		byName[rec.Name] = rec
	}
	if byName["root"].Parent != 0 {
		t.Errorf("root parent = %d, want 0", byName["root"].Parent)
	}
	if byName["child"].Parent != byName["root"].ID {
		t.Errorf("child parent = %d, want root %d", byName["child"].Parent, byName["root"].ID)
	}
	if byName["grand"].Parent != byName["child"].ID {
		t.Errorf("grand parent = %d, want child %d", byName["grand"].Parent, byName["child"].ID)
	}
	if byName["grand"].Detail != 42 {
		t.Errorf("grand detail = %d, want 42", byName["grand"].Detail)
	}
	for name, rec := range byName {
		if rec.End < rec.Start {
			t.Errorf("%s: End %v before Start %v", name, rec.End, rec.Start)
		}
	}
	// Completed inner-first, so the ring order is grand, child, root.
	if recs[0].Name != "grand" || recs[2].Name != "root" {
		t.Errorf("ring order = %s,%s,%s; want grand,child,root", recs[0].Name, recs[1].Name, recs[2].Name)
	}
}

// Ending spans in an order unrelated to their start order must work: the
// handle carries the start state, the ring only ever sees completed
// records.
func TestSpanOutOfOrderEnd(t *testing.T) {
	r := NewSpanRecorder(SpanConfig{})
	a := r.StartSpan("a", 0)
	b := r.StartSpan("b", a.ID())
	c := r.StartSpan("c", a.ID())
	a.End() // parent first
	c.End()
	b.End()
	recs := r.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if recs[0].Name != "a" || recs[1].Name != "c" || recs[2].Name != "b" {
		t.Errorf("ring order = %s,%s,%s; want a,c,b (commit order)", recs[0].Name, recs[1].Name, recs[2].Name)
	}
}

func TestSpanRingOverflowCountsDrops(t *testing.T) {
	r := NewSpanRecorder(SpanConfig{Capacity: 4})
	for i := 0; i < 10; i++ {
		sp := r.StartSpan(fmt.Sprintf("s%d", i), 0)
		sp.End()
	}
	if got := r.Len(); got != 4 {
		t.Errorf("Len = %d, want 4", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Errorf("Dropped = %d, want 6", got)
	}
	recs := r.Records()
	// Oldest-first: the survivors are the last four committed.
	for i, rec := range recs {
		want := fmt.Sprintf("s%d", i+6)
		if rec.Name != want {
			t.Errorf("record %d = %s, want %s", i, rec.Name, want)
		}
	}
}

func TestNilSpanRecorderIsInert(t *testing.T) {
	var r *SpanRecorder
	sp := r.StartSpan("x", 7)
	if sp.Active() {
		t.Error("span from nil recorder reports Active")
	}
	if sp.ID() != 0 {
		t.Errorf("inert span ID = %d, want 0", sp.ID())
	}
	sp.SetDetail(1)
	sp.End()
	r.Event("e", 0)
	if r.Len() != 0 || r.Dropped() != 0 || r.Records() != nil {
		t.Error("nil recorder accumulated state")
	}
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace on nil recorder: %v", err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("nil-recorder trace is not JSON: %v", err)
	}
}

// TestSpanDisabledZeroAlloc is the CI-gated property that makes it safe
// to put StartSpan/End at every phase boundary unconditionally: with a
// nil recorder the whole path must not allocate.
func TestSpanDisabledZeroAlloc(t *testing.T) {
	var r *SpanRecorder
	allocs := testing.AllocsPerRun(1000, func() {
		sp := r.StartSpan("phase", 3)
		sp.SetDetail(9)
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("disabled span path allocates %.1f/op, want 0", allocs)
	}
}

// TestSpanEnabledZeroAlloc pins the enabled path's steady state: once
// the recorder is full, every End overwrites the oldest record in place.
// Filling first keeps the ring's growth out of the measurement instead of
// letting the per-run average round it away.
func TestSpanEnabledZeroAlloc(t *testing.T) {
	r := NewSpanRecorder(SpanConfig{Capacity: 64})
	for r.Len() < 64 {
		r.StartSpan("fill", 0).End()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		sp := r.StartSpan("phase", 0)
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("enabled span path allocates %.1f/op, want 0 (value handle, full ring overwrites in place)", allocs)
	}
}

// decodeTrace round-trips an exported trace and returns its events.
func decodeTrace(t *testing.T, r *SpanRecorder) []map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var f struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		OtherData       map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace does not decode: %v", err)
	}
	if f.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", f.DisplayTimeUnit)
	}
	if f.OtherData["process"] == "" {
		t.Error("otherData.process missing")
	}
	return f.TraceEvents
}

func TestWriteTraceSchema(t *testing.T) {
	r := NewSpanRecorder(SpanConfig{Process: "testproc"})
	root := r.StartSpan("run", 0)
	for i := 0; i < 3; i++ {
		c := r.StartSpan("chunk", root.ID())
		g := r.StartSpan("inner", c.ID())
		g.End()
		c.SetDetail(uint64(i + 1))
		c.End()
	}
	root.End()

	events := decodeTrace(t, r)

	// Every tid's B/E events must form a properly nested stack with
	// non-decreasing timestamps — the contract trace viewers rely on.
	lastTs := make(map[float64]float64) // tid -> last ts
	stacks := make(map[float64][]string)
	for _, ev := range events {
		ph := ev["ph"].(string)
		if ph == "M" {
			continue
		}
		tid := ev["tid"].(float64)
		ts := ev["ts"].(float64)
		name := ev["name"].(string)
		if ts < lastTs[tid] {
			t.Fatalf("tid %v: ts went backwards (%v after %v)", tid, ts, lastTs[tid])
		}
		lastTs[tid] = ts
		switch ph {
		case "B":
			stacks[tid] = append(stacks[tid], name)
		case "E":
			st := stacks[tid]
			if len(st) == 0 {
				t.Fatalf("tid %v: E %q with empty stack", tid, name)
			}
			if top := st[len(st)-1]; top != name {
				t.Fatalf("tid %v: E %q does not match open span %q", tid, name, top)
			}
			stacks[tid] = st[:len(st)-1]
		default:
			t.Fatalf("unexpected phase %q", ph)
		}
	}
	for tid, st := range stacks {
		if len(st) != 0 {
			t.Errorf("tid %v: %d spans left open: %v", tid, len(st), st)
		}
	}

	// The detail argument must survive export on B events.
	sawDetail := false
	for _, ev := range events {
		if ev["ph"] == "B" && ev["name"] == "chunk" {
			if args, ok := ev["args"].(map[string]any); ok {
				if _, ok := args["detail"]; ok {
					sawDetail = true
				}
			}
		}
	}
	if !sawDetail {
		t.Error("no chunk B event carries args.detail")
	}
}

// A child whose parent record was dropped from the ring (or never
// ended) anchors its own track instead of corrupting another stack.
func TestWriteTraceOrphanAnchorsOwnTrack(t *testing.T) {
	r := NewSpanRecorder(SpanConfig{Capacity: 2})
	parent := r.StartSpan("parent", 0)
	for i := 0; i < 3; i++ { // overflow: first children are dropped
		c := r.StartSpan("child", parent.ID())
		c.End()
	}
	// parent never ends: every surviving child is an orphan.
	events := decodeTrace(t, r)
	for _, ev := range events {
		if ev["ph"] == "M" {
			continue
		}
		// Orphans are their own roots, so tid == own span id; just require
		// matched pairs per tid (one B and one E).
		tid := ev["tid"].(float64)
		if tid == 0 {
			t.Errorf("event on tid 0: %v", ev)
		}
	}
	if r.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", r.Dropped())
	}
}

// TestSpanConcurrentEmission exercises StartSpan/End from many
// goroutines with a concurrent exporter; run under -race (make race)
// this proves the recorder's locking discipline.
func TestSpanConcurrentEmission(t *testing.T) {
	r := NewSpanRecorder(SpanConfig{Capacity: 128})
	root := r.StartSpan("root", 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := r.StartSpan("work", root.ID())
				sp.SetDetail(uint64(i))
				sp.End()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			var buf bytes.Buffer
			if err := r.WriteTrace(&buf); err != nil {
				t.Errorf("concurrent WriteTrace: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	root.End()
	total := uint64(r.Len()) + r.Dropped()
	if want := uint64(8*200 + 1); total != want {
		t.Errorf("Len+Dropped = %d, want %d", total, want)
	}
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatalf("final WriteTrace: %v", err)
	}
}

func TestSpanIDsMonotonic(t *testing.T) {
	r := NewSpanRecorder(SpanConfig{})
	var prev SpanID
	for i := 0; i < 100; i++ {
		sp := r.StartSpan("s", 0)
		if sp.ID() <= prev {
			t.Fatalf("ID %d not greater than previous %d", sp.ID(), prev)
		}
		prev = sp.ID()
		sp.End()
	}
}
