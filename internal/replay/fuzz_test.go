package replay

import (
	"strings"
	"testing"
)

// FuzzReadEvents throws arbitrary bytes at the JSONL trace parser and, on
// any input that parses, at geometry inference and a lenient
// reconstruction. The properties under test: the parser never panics and
// never hangs; InferGeometry always returns a usable (≥1, ≥1) geometry
// for a non-empty event list; and a lenient Machine absorbs any parsed
// event stream without error (lenient mode exists precisely so sampled
// or damaged traces can still be folded for their activity counters).
func FuzzReadEvents(f *testing.F) {
	f.Add(`{"type":"repartition","run":"golden","cycle":4000,"eval":1,"gainer":2,"loser":0,"gain":3.5,"loss":1.0,"transferred":true,"limits":[2,3,4,3]}`)
	f.Add(`{"type":"fill","run":"golden","cycle":17,"core":0,"owner":0,"set":5,"tag":18,"depth":0,"home":0}`)
	f.Add(`{"type":"demote","cycle":90,"core":1,"owner":1,"set":5,"tag":18,"depth":3,"home":2,"over_limit":true}`)
	f.Add(`{"type":"evict","cycle":120,"core":2,"owner":1,"set":5,"tag":18,"depth":7,"dirty":true}`)
	f.Add("{\"type\":\"hit\"")                                   // truncated line
	f.Add("")                                                    // empty stream
	f.Add("\n\n  \nnot json at all\n")                           // garbage line
	f.Add(`{"type":"fill","set":2147483647,"core":0,"owner":0}`) // absurd set index
	f.Add(`{"type":"fill","set":-5,"core":-1,"owner":99}`)       // out-of-range indices

	f.Fuzz(func(t *testing.T, in string) {
		events, err := ReadEvents(strings.NewReader(in), "")
		if err != nil {
			return // rejecting malformed input is the correct outcome
		}
		cores, sets := InferGeometry(events)
		if cores < 1 || sets < 1 {
			t.Fatalf("InferGeometry(%d events) = (%d cores, %d sets); want ≥1 each", len(events), cores, sets)
		}
		// Reconstruction cost scales with the inferred geometry and the
		// event count; cap both so a single fuzz iteration stays cheap.
		if cores > 64 || sets > 1<<14 || len(events) > 4096 {
			return
		}
		m := NewMachine(cores, sets, InitialLimits(cores, 4))
		m.Lenient = true
		if err := m.ApplyAll(events); err != nil {
			t.Fatalf("lenient ApplyAll returned %v; lenient mode must absorb any parsed stream", err)
		}
	})
}
