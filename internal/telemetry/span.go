package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID identifies one span within a SpanRecorder. Zero means "no
// parent" (a root span). IDs are allocated monotonically and never
// reused, so a parent reference stays meaningful even after the parent's
// completed record has been dropped from the bounded ring.
type SpanID uint64

// SpanRecord is one completed span: a named wall-clock interval with an
// optional parent and an optional scalar detail (work units covered —
// cycles, instructions, bytes — whatever the phase counts in).
type SpanRecord struct {
	ID     SpanID
	Parent SpanID
	Name   string
	Detail uint64
	// Start and End are offsets from the recorder's epoch (monotonic
	// clock), not absolute times.
	Start time.Duration
	End   time.Duration
}

// DefaultSpanCapacity bounds the completed-span flight recorder when
// SpanConfig leaves it zero. A default nucasim run completes well under
// a thousand spans; long sweeps overwrite the oldest (counted, never
// silently lost).
const DefaultSpanCapacity = 8192

// SpanConfig parameterizes a SpanRecorder.
type SpanConfig struct {
	// Capacity bounds the completed-span ring (default
	// DefaultSpanCapacity). When full, the oldest record is overwritten
	// and Dropped() increments.
	Capacity int
	// Process names the process row in the exported trace (default
	// "nucasim").
	Process string
}

// SpanRecorder is a bounded in-memory flight recorder for wall-clock
// phase spans. Unlike the rest of this package it IS safe for concurrent
// use: serve workers emit spans from several goroutines into one
// per-job recorder, so StartSpan allocates IDs atomically and End
// commits under a mutex. A nil *SpanRecorder disables everything —
// StartSpan returns an inert Span and costs one branch and zero
// allocations, which is what keeps the simulator's phase boundaries
// free to call it unconditionally.
//
// Spans observe wall-clock time only. They must never feed back into
// simulated state: golden baselines, replay verification and checkpoint
// bit-identity are all proven unchanged with spans enabled.
type SpanRecorder struct {
	// Process is exported both for callers and so the type stays
	// gob-describable: *SpanRecorder appears (nil) inside Config, which
	// sits in the checkpoint's type graph, and gob refuses struct types
	// with no exported fields.
	Process string

	epoch  time.Time
	nextID atomic.Uint64

	mu   sync.Mutex
	done ring[SpanRecord] // completed records, guarded by mu
}

// NewSpanRecorder builds a recorder whose epoch is "now".
func NewSpanRecorder(cfg SpanConfig) *SpanRecorder {
	process := cfg.Process
	if process == "" {
		process = "nucasim"
	}
	return &SpanRecorder{
		Process: process,
		epoch:   time.Now(),
		done:    newRing[SpanRecord](cfg.Capacity, DefaultSpanCapacity),
	}
}

// Span is a live (un-ended) span handle. It is a small value — copying
// it is free, and the zero Span (from a nil recorder) makes End and
// SetDetail no-ops. Because the handle itself carries the start state,
// spans may End in any order; nothing is reserved in the ring until End
// commits the completed record.
type Span struct {
	rec    *SpanRecorder
	id     SpanID
	parent SpanID
	name   string
	start  time.Duration
	detail uint64
}

// StartSpan opens a span under parent (SpanID(0) for a root). On a nil
// recorder it returns the inert zero Span.
func (r *SpanRecorder) StartSpan(name string, parent SpanID) Span {
	if r == nil {
		return Span{}
	}
	return Span{
		rec:    r,
		id:     SpanID(r.nextID.Add(1)),
		parent: parent,
		name:   name,
		start:  time.Since(r.epoch),
	}
}

// Event records an instant (zero-duration span) under parent. Useful
// for point-in-time facts like "profile written".
func (r *SpanRecorder) Event(name string, parent SpanID) {
	if r == nil {
		return
	}
	s := r.StartSpan(name, parent)
	s.End()
}

// ID returns the span's identity for use as a parent handle. Zero for
// the inert span.
func (s Span) ID() SpanID { return s.id }

// Active reports whether the span records anywhere.
func (s Span) Active() bool { return s.rec != nil }

// SetDetail attaches a scalar work count to the span, carried into the
// committed record and exported as a trace-event argument.
func (s *Span) SetDetail(n uint64) {
	if s.rec != nil {
		s.detail = n
	}
}

// End commits the completed record to the recorder's ring. On the zero
// Span it is a no-op. Ending the same handle twice commits twice; call
// sites own that discipline (each phase boundary ends its span once).
func (s Span) End() {
	if s.rec == nil {
		return
	}
	rec := SpanRecord{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Detail: s.detail,
		Start:  s.start,
		End:    time.Since(s.rec.epoch),
	}
	r := s.rec
	r.mu.Lock()
	r.done.push(rec)
	r.mu.Unlock()
}

// Len returns the number of completed records currently held.
func (r *SpanRecorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.done.buf)
}

// Dropped returns how many completed records the bounded ring has
// overwritten.
func (r *SpanRecorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done.dropped
}

// Records returns a copy of the completed records, oldest first.
func (r *SpanRecorder) Records() []SpanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done.from(0)
}

// traceEvent is one Chrome trace-event object. The exported trace uses
// only duration-begin ("B"), duration-end ("E") and metadata ("M")
// phases, which every trace-event consumer (Perfetto, chrome://tracing,
// catapult) understands.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds since recorder epoch
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the JSON-object form of the Chrome trace-event format.
type traceFile struct {
	TraceEvents     []traceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// WriteTrace renders the completed spans as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Each root
// span (and each orphan whose parent record was dropped from the ring)
// becomes its own track (tid), named after the root span; children nest
// under it via matched B/E pairs. Events are ordered by timestamp with
// ties broken so that ends close inner-first and begins open
// outer-first — the ordering trace viewers require. Safe to call
// concurrently with span emission; it snapshots under the lock and
// renders outside it.
func (r *SpanRecorder) WriteTrace(w io.Writer) error {
	var (
		recs    []SpanRecord
		dropped uint64
		process = "nucasim"
	)
	if r != nil {
		r.mu.Lock()
		recs = r.done.from(0)
		dropped = r.done.dropped
		r.mu.Unlock()
		process = r.Process
	}

	byID := make(map[SpanID]int, len(recs))
	for i := range recs {
		byID[recs[i].ID] = i
	}
	// Resolve each record's root ancestor (its track) and depth. A
	// parent that is still open or already dropped is treated as absent:
	// the child anchors its own track.
	type place struct {
		root  SpanID
		depth int
	}
	memo := make(map[SpanID]place, len(recs))
	var resolve func(id SpanID) place
	resolve = func(id SpanID) place {
		if p, ok := memo[id]; ok {
			return p
		}
		i := byID[id] // caller guarantees presence
		rec := recs[i]
		p := place{root: id, depth: 0}
		if rec.Parent != 0 {
			if _, ok := byID[rec.Parent]; ok {
				// Parent IDs strictly precede child IDs, so this
				// recursion terminates; memoization keeps it linear.
				pp := resolve(rec.Parent)
				p = place{root: pp.root, depth: pp.depth + 1}
			}
		}
		memo[id] = p
		return p
	}

	type sortEvent struct {
		ev    traceEvent
		depth int
		id    SpanID
		end   bool
	}
	events := make([]sortEvent, 0, 2*len(recs))
	roots := make(map[SpanID]string)
	for i := range recs {
		rec := recs[i]
		p := resolve(rec.ID)
		if p.root == rec.ID {
			roots[rec.ID] = rec.Name
		}
		var args map[string]any
		if rec.Detail != 0 {
			args = map[string]any{"detail": rec.Detail}
		}
		tid := uint64(p.root)
		events = append(events,
			sortEvent{
				ev:    traceEvent{Name: rec.Name, Ph: "B", Ts: tsMicros(rec.Start), Pid: 1, Tid: tid, Args: args},
				depth: p.depth, id: rec.ID,
			},
			sortEvent{
				ev:    traceEvent{Name: rec.Name, Ph: "E", Ts: tsMicros(rec.End), Pid: 1, Tid: tid},
				depth: p.depth, id: rec.ID, end: true,
			},
		)
	}
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.ev.Ts != b.ev.Ts {
			return a.ev.Ts < b.ev.Ts
		}
		if a.end != b.end {
			return a.end // E sorts before B at equal ts
		}
		if a.depth != b.depth {
			if a.end {
				return a.depth > b.depth // inner spans close first
			}
			return a.depth < b.depth // outer spans open first
		}
		return a.id < b.id
	})

	out := make([]traceEvent, 0, len(events)+len(roots)+1)
	out = append(out, traceEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": process},
	})
	rootIDs := make([]SpanID, 0, len(roots))
	for id := range roots {
		rootIDs = append(rootIDs, id)
	}
	sort.Slice(rootIDs, func(i, j int) bool { return rootIDs[i] < rootIDs[j] })
	for _, id := range rootIDs {
		out = append(out, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: uint64(id),
			Args: map[string]any{"name": roots[id]},
		})
	}
	for i := range events {
		out = append(out, events[i].ev)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{
		TraceEvents:     out,
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"process":       process,
			"dropped_spans": dropped,
		},
	})
}

// tsMicros converts a span offset to trace-event microseconds.
func tsMicros(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e3
}
