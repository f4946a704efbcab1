package cpu

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"nucasim/internal/rng"
	"nucasim/internal/workload"
)

// eventLockstep advances the core under test the way Machine.Run does,
// stepping it only at its events and skipping the cycles between with
// SkipTo, while the reference steps every cycle with the full-scan issue.
// It compares port calls and snapshots at every event and at random stop
// cycles inside the skipped stretches, and returns the number of cycles
// the core under test skipped.
func eventLockstep(t *testing.T, what string, r *rng.Rand, c *Core, cp *recordingPort, ref *Core, rp *recordingPort, from, to uint64) (skipped uint64) {
	t.Helper()
	refNow := from
	check := func(at uint64) {
		t.Helper()
		for ; refNow < at; refNow++ {
			ref.referenceStep(refNow)
		}
		if !slices.Equal(cp.log, rp.log) {
			t.Fatalf("%s: by cycle %d: port calls differ:\n got %v\nwant %v", what, at, cp.log, rp.log)
		}
		cp.log, rp.log = cp.log[:0], rp.log[:0]
		if !sameState(c.Snapshot(), ref.Snapshot()) {
			t.Fatalf("%s: by cycle %d: snapshots differ", what, at)
		}
	}
	for now := from; now < to; {
		next := min(c.NextEvent(now), to)
		if next < now {
			t.Fatalf("%s: NextEvent(%d) = %d is in the past", what, now, next)
		}
		stop := next
		if next > now && r.Intn(4) == 0 {
			// Stop early, as a Run chunk ending mid-stretch does.
			stop = now + 1 + r.Uint64n(next-now)
		}
		c.SkipTo(now, stop)
		skipped += stop - now
		now = stop
		if stop < next || next == to {
			check(now)
			continue
		}
		c.Step(now)
		now++
		check(now)
	}
	return skipped
}

// TestEventSkipMatchesEveryCycleStep: over the suite and random core
// shapes, jumping from event to event leaves the core exactly where the
// cycle-by-cycle reference leaves it, with the same port calls at the
// same cycles.
func TestEventSkipMatchesEveryCycleStep(t *testing.T) {
	r := rng.New(2025)
	suite := workload.Suite()
	n := 30
	if testing.Short() || raceEnabled {
		n = 8
	}
	var skipped, total uint64
	for i := 0; i < len(suite)+n; i++ {
		cfg, app := Config{}, suite[i%len(suite)]
		if i >= len(suite) {
			cfg, app = randomConfig(r), suite[r.Intn(len(suite))]
		}
		seed := r.Uint64()
		c, cp := newOracleCore(cfg, app, seed)
		ref, rp := newOracleCore(cfg, app, seed)
		skipped += eventLockstep(t, fmt.Sprintf("%s %+v", app.Name, cfg), r, c, cp, ref, rp, 0, oracleCycles())
		total += oracleCycles()
	}
	if skipped < total/4 {
		t.Fatalf("skipped %d of %d cycles; the skip path is under-exercised", skipped, total)
	}
}

// TestEventSkipAfterRestore restores a mid-run snapshot into a reused
// core and continues it by events against the every-cycle reference.
func TestEventSkipAfterRestore(t *testing.T) {
	app, _ := workload.ByName("mcf")
	cfg := Config{MSHRs: 2}
	const seed = 11
	r := rng.New(seed)
	mid, end := oracleCycles()/2, oracleCycles()
	c, cp := newOracleCore(cfg, app, seed)
	ref, rp := newOracleCore(cfg, app, seed)
	eventLockstep(t, "before snapshot", r, c, cp, ref, rp, 0, mid)
	snap, portAtMid := c.Snapshot(), cp.clone()
	eventLockstep(t, "run on", r, c, cp, ref, rp, mid, end)

	if err := c.Restore(snap); err != nil {
		t.Fatal(err)
	}
	cp = portAtMid.clone()
	c.port = cp
	refB, _ := newOracleCore(cfg, app, seed)
	if err := refB.Restore(snap); err != nil {
		t.Fatal(err)
	}
	rbp := portAtMid.clone()
	refB.port = rbp
	eventLockstep(t, "reused core after restore", r, c, cp, refB, rbp, mid, end)
}

// TestRestoreRejectsCorruptRing: Restore refuses a state whose RUU
// window, scan frontier, LSQ occupancy, MSHR file or sequence numbering
// cannot belong to the core, instead of continuing on it.
func TestRestoreRejectsCorruptRing(t *testing.T) {
	app, _ := workload.ByName("mcf")
	c, _ := newOracleCore(Config{}, app, 3)
	for now := uint64(0); now < 500; now++ {
		c.Step(now)
	}
	if c.head == c.tail {
		t.Fatal("the RUU is empty; the ring rows need entries in flight")
	}
	for _, tc := range []struct {
		name    string
		corrupt func(s *State)
		want    string
	}{
		{"head past tail", func(s *State) { s.Head = s.Tail + 1 }, "RUU window"},
		{"window wider than RUU", func(s *State) { s.Tail = s.Head + uint64(len(s.RUU)) + 1 }, "RUU window"},
		{"tail far past head", func(s *State) { s.Tail, s.ScanAbs = 1<<63, 1<<63 }, "RUU window"},
		{"scan past tail", func(s *State) { s.ScanAbs = s.Tail + 1 }, "scan frontier"},
		{"negative LSQ", func(s *State) { s.LSQLen = -1 }, "LSQ"},
		{"LSQ overfull", func(s *State) { s.LSQLen = 65 }, "LSQ"},
		{"MSHRs overfull", func(s *State) { s.MSHR = make([]uint64, 9) }, "outstanding misses"},
		{"unissued behind scan frontier", func(s *State) {
			s.RUU[s.Head%uint64(len(s.RUU))].Issued = false
			s.ScanAbs = s.Head + 1
		}, "unissued behind the scan frontier"},
		{"NextSeq off the tail", func(s *State) { s.NextSeq++ }, "NextSeq"},
		{"entry Seq off its position", func(s *State) { s.RUU[(s.Tail-1)%uint64(len(s.RUU))].Seq++ }, "has Seq"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := c.Snapshot()
			tc.corrupt(&s)
			fresh, _ := newOracleCore(Config{}, app, 3)
			err := fresh.Restore(s)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Restore returned %v, want an error about the %s", err, tc.want)
			}
		})
	}
	if err := c.Restore(c.Snapshot()); err != nil {
		t.Fatalf("uncorrupted snapshot rejected: %v", err)
	}
}
