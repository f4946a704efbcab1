package sim

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"nucasim/internal/telemetry"
)

// withoutWall strips the one field a chained window may not share with
// a one-window resume: the wall clock. Throughput.SimCycles stays.
func withoutWall(r Result) Result {
	r.Throughput.Wall = 0
	return r
}

// chainCase is one Restore + MeasureWindows chain: its checkpoint (the warmup's or
// the mid-window one), the run knobs every window of the chain shares,
// and the windows.
type chainCase struct {
	mid        bool
	telemetry  bool
	invariants bool
	verify     bool
	windows    []uint64
}

// window is the one-window resume and cold run of the chain's i-th
// window, with the chain's knobs.
func (c chainCase) window(i int) reuseWindow {
	return reuseWindow{measure: c.windows[i], mid: c.mid, telemetry: c.telemetry,
		invariants: c.invariants, verify: c.verify}
}

// scribble overwrites every slice and map element of r in place, so a
// Result that shares any of them with another shows the change.
func scribble(r *Result) {
	for i := range r.Epochs {
		e := &r.Epochs[i]
		e.Eval += 1000
		for _, s := range [][]uint64{e.ShadowHits, e.LRUHits, e.EpochAccesses, e.EpochMisses} {
			for k := range s {
				s[k] += 1000
			}
		}
		for k := range e.Limits {
			e.Limits[k] += 1000
		}
	}
	for k := range r.Counters {
		r.Counters[k] += 1000
	}
	for k, h := range r.Histograms {
		for b := range h.Buckets {
			h.Buckets[b].Count += 1000
		}
		r.Histograms[k] = h
	}
	for i := range r.SetStats {
		r.SetStats[i].Fills += 1000
	}
	for i := range r.PartitionLimits {
		r.PartitionLimits[i] += 1000
	}
	for i := range r.PerCoreIPC {
		r.PerCoreIPC[i] += 1000
	}
	for i := range r.CoreStats {
		r.CoreStats[i].Instructions += 1000
	}
}

// TestRestoreMeasureWindowsMatchesSeparateResumes is the chain oracle:
// one warmed machine restores the warmup checkpoint, or one taken part
// way into a window, and measures it through a chain of windows
// (repeated windows included), with telemetry on and off and
// CheckInvariants and ReplayVerify mixed. Each harvested Result, wall
// clock aside, must equal both the fresh-machine one-window resume and
// the cold run of its window. Each earlier Result is overwritten in
// place before the next is compared, so a later Result that shares a
// slice or map with it fails.
func TestRestoreMeasureWindowsMatchesSeparateResumes(t *testing.T) {
	ctx := context.Background()
	mix := mixOf(t, "ammp", "gzip")
	m, ck := warmAndCapture(t, ckConfig(), mix)
	mid := captureAt(t, ckConfig(), mix, midMeasured)

	windows := []uint64{1_000, 1_000, 3_000, 8_000, 25_000}
	for _, c := range []chainCase{
		{telemetry: true, invariants: true, windows: windows},
		{windows: windows},
		{telemetry: true, verify: true, windows: windows},
		{invariants: true, verify: true, windows: windows},
		{mid: true, telemetry: true, invariants: true, windows: []uint64{midMeasured, midMeasured, 30_000, 45_000}},
	} {
		// The chain's checkpoint carries a window of its own that the
		// windows replace.
		rs, err := restoreWindows(ctx, m, c.window(0).fork(ck, mid), c.windows, nil)
		if err != nil {
			t.Fatalf("chain %+v: %v", c, err)
		}
		if len(rs) != len(c.windows) {
			t.Fatalf("chain %+v: %d Results for %d windows", c, len(rs), len(c.windows))
		}
		for i := range rs {
			w := c.window(i)
			got := rs[i]
			if c.telemetry && (len(got.Epochs) == 0 || len(got.Counters) == 0 || len(got.SetStats) == 0 || len(got.Histograms) == 0) {
				t.Fatalf("chain %+v window %d: telemetry left epochs, counters, set stats or histograms empty", c, i)
			}
			fresh, err := ResumeFromCheckpoint(ctx, w.fork(ck, mid), nil)
			if err != nil {
				t.Fatalf("chain %+v window %d: one-window resume: %v", c, i, err)
			}
			if !reflect.DeepEqual(withoutWall(got), withoutWall(fresh)) {
				t.Fatalf("chain %+v window %d (%d cycles): chained Result diverged from the one-window resume\nchained %+v\nresume  %+v",
					c, i, w.measure, withoutWall(got), withoutWall(fresh))
			}
			cold, err := RunContext(ctx, w.coldConfig(), mix)
			if err != nil {
				t.Fatalf("chain %+v window %d: cold run: %v", c, i, err)
			}
			if c.verify {
				// The resumed reconstruction starts at the checkpoint, the
				// cold one at the empty cache.
				before := ck.LLC.Evaluations
				if c.mid {
					before = mid.LLC.Evaluations
				}
				last := i == len(rs)-1
				if got.ReplayVerifyError != "" || cold.ReplayVerifyError != "" ||
					got.ReplayEpochsVerified+before != cold.ReplayEpochsVerified || last && got.ReplayEpochsVerified == 0 {
					t.Fatalf("chain %+v window %d: resumed run verified %d epochs after the checkpoint's %d, cold run %d; errors %q, %q",
						c, i, got.ReplayEpochsVerified, before, cold.ReplayEpochsVerified, got.ReplayVerifyError, cold.ReplayVerifyError)
				}
				got.ReplayEpochsVerified = cold.ReplayEpochsVerified
			}
			if !reflect.DeepEqual(withoutWall(got), withoutWall(cold)) {
				t.Fatalf("chain %+v window %d (%d cycles): chained Result diverged from the cold run\nchained %+v\ncold    %+v",
					c, i, w.measure, withoutWall(got), withoutWall(cold))
			}
			scribble(&rs[i])
		}
	}
}

// TestMeasureWindowsRefusesBadWindows: windows that decrease, an empty
// list, an empty window and windows shorter than the restored
// checkpoint's measured cycles are refused before anything is measured.
func TestMeasureWindowsRefusesBadWindows(t *testing.T) {
	ctx := context.Background()
	mix := mixOf(t, "ammp", "gzip")
	m, ck := warmAndCapture(t, ckConfig(), mix)
	measured := *ck
	measured.Measured = 2_000
	for name, c := range map[string]struct {
		ck      *Checkpoint
		windows []uint64
		want    string
	}{
		"decreasing":  {ck, []uint64{1_000, 3_000, 2_000}, "may not decrease"},
		"none":        {ck, nil, "no measurement window"},
		"empty":       {ck, []uint64{0, 1_000}, "window 0 is empty"},
		"below start": {&measured, []uint64{1_000, 3_000}, "measured cycles"},
	} {
		rs, err := restoreWindows(ctx, m, c.ck, c.windows, nil)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: windows %v returned %v, want an error containing %q", name, c.windows, err, c.want)
		}
		if rs != nil {
			t.Errorf("%s: a refused chain returned %d Results", name, len(rs))
		}
	}
}

// TestMeasureWindowsChecksEachWindowEnd: each window ends with the
// end-of-run invariant sweep before it is harvested. A fault injected
// just as the second window's last chunk completes (after the
// repartition hook's last check) fails the chain at that window's end,
// with the first window's Result returned and the second's not.
func TestMeasureWindowsChecksEachWindowEnd(t *testing.T) {
	ctx := context.Background()
	mix := mixOf(t, "ammp", "gzip")
	m, ck := warmAndCapture(t, ckConfig(), mix)
	windows := []uint64{1_000, 3_000, 8_000}
	flipped := false
	rs, err := restoreWindows(ctx, m, ck, windows, func(c *telemetry.Config) bool {
		c.OnProgress = func(p telemetry.Progress) {
			if p.Phase == "measure" && p.Done == windows[1] {
				flipped = m.Adaptive.FaultFlipPrivateOwner()
			}
		}
		return true
	})
	if !flipped {
		t.Fatal("no private block to corrupt at the second window's end")
	}
	if err == nil || !strings.Contains(err.Error(), "invariant violation at end of run") {
		t.Fatalf("chain returned %v, want an end-of-run invariant violation", err)
	}
	if len(rs) != 1 {
		t.Fatalf("chain returned %d Results with its error, want the first window's only", len(rs))
	}
	fork := *ck
	fork.Cfg.MeasureCycles = windows[0]
	want, err := ResumeFromCheckpoint(ctx, &fork, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(withoutWall(rs[0]), withoutWall(want)) {
		t.Fatal("the Result harvested before the failure diverged from its one-window resume")
	}
}

// TestMeasureWindowsMatchesColdRuns is the oracle of a chain that
// restores nothing: machines warmed by NewWarmedMachine measure on
// through a chain of windows, with telemetry on and off, CheckInvariants
// and ReplayVerify mixed, and the boundary captured first or not. Each
// harvested Result, wall clock aside, must equal the cold run of its
// window (it is that run, so under ReplayVerify the verified epochs
// match too), and each earlier Result is overwritten in place before
// the next is compared. A baseline scheme measures on the same way.
//
// The origin stays after measuring: a machine that measured to W
// refuses a window shorter than W, and measures on to a longer one,
// and a Capture taken at W resumes to the longer window's cold run. A
// machine with no origin (only built, or whose Restore failed) refuses
// both to capture and to measure, until a Restore succeeds.
func TestMeasureWindowsMatchesColdRuns(t *testing.T) {
	ctx := context.Background()
	mix := mixOf(t, "ammp", "gzip")
	windows := []uint64{1_000, 1_000, 3_000, 8_000, 25_000}
	const longer = 32_000
	for _, c := range []struct {
		chainCase
		scheme  Scheme
		capture bool
	}{
		{chainCase: chainCase{telemetry: true, invariants: true, windows: windows}},
		{chainCase: chainCase{windows: windows}, capture: true},
		{chainCase: chainCase{telemetry: true, verify: true, windows: windows}, capture: true},
		{chainCase: chainCase{invariants: true, verify: true, windows: windows}},
		{chainCase: chainCase{telemetry: true, windows: []uint64{2_000, 6_000}}, scheme: SchemeShared},
	} {
		coldConfig := func(measure uint64) Config {
			cfg := c.window(0).coldConfig()
			cfg.MeasureCycles = measure
			if c.scheme != "" {
				cfg.Scheme = c.scheme
			}
			return cfg
		}
		// The machine is built for the shortest window's cold run; the
		// windows replace its MeasureCycles.
		m, err := NewWarmedMachine(ctx, coldConfig(c.windows[0]), mix)
		if err != nil {
			t.Fatal(err)
		}
		if c.capture {
			if _, err := m.Capture(); err != nil {
				t.Fatalf("chain %+v: capture: %v", c, err)
			}
		}
		if _, err := m.MeasureWindows(ctx, []uint64{3_000, 1_000}); err == nil || !strings.Contains(err.Error(), "may not decrease") {
			t.Fatalf("chain %+v: decreasing windows returned %v", c, err)
		}
		rs, err := m.MeasureWindows(ctx, c.windows)
		if err != nil {
			t.Fatalf("chain %+v: %v", c, err)
		}
		if len(rs) != len(c.windows) {
			t.Fatalf("chain %+v: %d Results for %d windows", c, len(rs), len(c.windows))
		}
		for i := range rs {
			want, err := RunContext(ctx, coldConfig(c.windows[i]), mix)
			if err != nil {
				t.Fatalf("chain %+v window %d: cold run: %v", c, i, err)
			}
			if c.verify && (rs[i].ReplayEpochsVerified == 0 || rs[i].ReplayVerifyError != "") {
				t.Fatalf("chain %+v window %d: verified %d epochs, error %q", c, i, rs[i].ReplayEpochsVerified, rs[i].ReplayVerifyError)
			}
			if !reflect.DeepEqual(withoutWall(rs[i]), withoutWall(want)) {
				t.Fatalf("chain %+v window %d (%d cycles): Result diverged from the cold run\nchain %+v\ncold  %+v",
					c, i, c.windows[i], withoutWall(rs[i]), withoutWall(want))
			}
			scribble(&rs[i])
		}

		if _, err := m.MeasureWindows(ctx, c.windows[:1]); err == nil || !strings.Contains(err.Error(), "measured cycles") {
			t.Fatalf("chain %+v: a window shorter than the cycles measured returned %v", c, err)
		}
		if c.scheme != "" || c.verify {
			continue
		}
		ck, err := m.Capture()
		if err != nil {
			t.Fatalf("chain %+v: capture after measuring: %v", c, err)
		}
		if last := c.windows[len(c.windows)-1]; ck.Measured != last {
			t.Fatalf("chain %+v: capture after measuring %d cycles holds %d", c, last, ck.Measured)
		}
		fork := *ck
		fork.Cfg.MeasureCycles = longer
		resumed, err := ResumeFromCheckpoint(ctx, &fork, nil)
		if err != nil {
			t.Fatalf("chain %+v: resuming the capture taken after measuring: %v", c, err)
		}
		on, err := m.MeasureWindows(ctx, []uint64{longer})
		if err != nil {
			t.Fatalf("chain %+v: measuring on: %v", c, err)
		}
		want, err := RunContext(ctx, coldConfig(longer), mix)
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]Result{"resumed capture": resumed, "measured on": on[0]} {
			if !reflect.DeepEqual(withoutWall(got), withoutWall(want)) {
				t.Fatalf("chain %+v: %s to %d cycles diverged from the cold run\ngot  %+v\ncold %+v",
					c, name, longer, withoutWall(got), withoutWall(want))
			}
		}
	}

	failed, ck := warmAndCapture(t, ckConfig(), mix)
	corrupt := *ck
	corrupt.LLC.MaxBlocks = corrupt.LLC.MaxBlocks[:1]
	if err := failed.Restore(&corrupt, nil); err == nil {
		t.Fatal("a checkpoint with a short MaxBlocks was restored")
	}
	for name, m := range map[string]*Machine{"failed restore": failed, "never warmed": NewMachine(ckConfig(), mix)} {
		if _, err := m.Capture(); !errors.Is(err, errNoOrigin) {
			t.Errorf("%s machine: capture returned %v", name, err)
		}
		if _, err := m.MeasureWindows(ctx, windows); !errors.Is(err, errNoOrigin) {
			t.Errorf("%s machine: measuring returned %v", name, err)
		}
	}
	w := reuseWindow{measure: 8_000, telemetry: true, invariants: true}
	got, err := restoreWindows(ctx, failed, ck, []uint64{w.measure}, nil)
	if err != nil {
		t.Fatalf("restore after a failed one: %v", err)
	}
	want, err := RunContext(ctx, w.coldConfig(), mix)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(withoutWall(got[0]), withoutWall(want)) {
		t.Fatal("a restore after a failed one diverged from the cold run")
	}
}
