package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"nucasim/internal/bpred"
	"nucasim/internal/cpu"
	"nucasim/internal/hierarchy"
	"nucasim/internal/llc"
	"nucasim/internal/memaddr"
	"nucasim/internal/rng"
	"nucasim/internal/telemetry"
	"nucasim/internal/workload"
)

// waitGoroutines fails the test unless the goroutine count returns to
// base. An exited worker can still be counted for an instant after the
// warmup that waited for it returns, so the check yields until it is
// gone or a deadline passes.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, want %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// recoverWarm runs a pipelined warmup segment and returns what it
// panicked with (nil if it returned).
func recoverWarm(m *Machine, n uint64) (r any) {
	defer func() { r = recover() }()
	m.warmFunctionalSegment(n)
	return nil
}

// panicPort is a core port that panics on its nth instruction fetch.
type panicPort struct {
	cpu.Port
	left int
}

func (p *panicPort) FetchInstr(pc memaddr.Addr, now uint64) uint64 {
	if p.left--; p.left == 0 {
		panic("injected port fault")
	}
	return p.Port.FetchInstr(pc, now)
}

// TestWarmWorkerPanicReRaised: a panic on a worker goroutine, on the
// generator or the hierarchy side, is re-raised on the caller's
// goroutine with the worker's stack, and no worker outlives the segment.
func TestWarmWorkerPanicReRaised(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(m *Machine)
		want    string
	}{
		{"generator", func(m *Machine) {
			m.Cores[2] = cpu.New(2, m.Cfg.CPU, nil, m.ports[2], bpred.New(bpred.Config{}))
		}, "nil pointer dereference"},
		{"hierarchy", func(m *Machine) {
			gen := workload.NewGenerator(mixOf(t, "mcf")[0], 1, rng.New(1))
			port := &panicPort{Port: m.ports[1], left: 500}
			m.Cores[1] = cpu.New(1, m.Cfg.CPU, gen, port, bpred.New(bpred.Config{}))
		}, "injected port fault"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			m := NewMachine(Config{Scheme: SchemeAdaptive, Seed: 1}, warmOracleMix(t, 4))
			tc.corrupt(m)
			r := recoverWarm(m, 100_000)
			wp, ok := r.(*workerPanic)
			if !ok {
				t.Fatalf("warmup panicked with %T %v, want *workerPanic", r, r)
			}
			if msg := fmt.Sprint(wp); !strings.Contains(msg, tc.want) || !strings.Contains(msg, "WarmFunctional") {
				t.Fatalf("re-raised panic %q lacks %q or the worker's stack", msg, tc.want)
			}
			waitGoroutines(t, base)
		})
	}
}

// panicOrg is an LLC organization that panics on its nth access.
type panicOrg struct {
	llc.Organization
	left int
}

func (o *panicOrg) Access(core int, a memaddr.Addr, write bool, now uint64) (uint64, bool) {
	if o.left--; o.left == 0 {
		panic("injected LLC fault")
	}
	return o.Organization.Access(core, a, write, now)
}

// TestWarmReplayPanicStopsWorkers: a panic while replaying into the LLC
// organization propagates as is, and the workers blocked on the replay
// side all exit.
func TestWarmReplayPanicStopsWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	mix := warmOracleMix(t, 4)
	m := NewMachine(Config{Scheme: SchemePrivate, Seed: 1}, mix)
	m.Hierarchy = hierarchy.New(hierarchy.Config{Cores: 4}, &panicOrg{Organization: m.Org, left: 5000})
	for i := range m.Cores {
		m.ports[i] = m.Hierarchy.Port(i)
		gen := workload.NewGenerator(mix[i], i, rng.New(uint64(i)+1))
		m.Cores[i] = cpu.New(i, m.Cfg.CPU, gen, m.ports[i], bpred.New(bpred.Config{}))
	}
	if r := recoverWarm(m, 200_000); r != "injected LLC fault" {
		t.Fatalf("warmup panicked with %v, want the organization's panic", r)
	}
	waitGoroutines(t, base)
}

// TestWarmInvariantViolationStopsWorkers: an invariant violation found
// by the repartition hook during warmup fails the run, and no worker
// outlives it.
func TestWarmInvariantViolationStopsWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	m := NewMachine(Config{Scheme: SchemeAdaptive, Seed: 1, CheckInvariants: true,
		WarmupInstructions: 400_000, WarmupCycles: 1}, warmOracleMix(t, 4))
	guard := m.guard
	a := m.Adaptive
	check := a.OnRepartition
	a.OnRepartition = func(limits []int, transferred bool) {
		a.FaultFlipPrivateOwner()
		check(limits, transferred)
	}
	if err := m.warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	if guard.err == nil || !strings.Contains(guard.err.Error(), "invariant violation") {
		t.Fatalf("guard error %v, want an invariant violation", guard.err)
	}
	waitGoroutines(t, base)
}

// TestWarmCancelBetweenSegmentsLeavesNoWorkers: cancelling between
// warmup segments interrupts the run with no worker left behind.
func TestWarmCancelBetweenSegmentsLeavesNoWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	segments := 0
	cfg := Config{Scheme: SchemeAdaptive, Seed: 1, WarmupInstructions: 3 * warmSegment,
		Telemetry: &telemetry.Config{OnProgress: func(p telemetry.Progress) {
			if p.Phase == "warmup-functional" {
				segments++
				cancel()
			}
		}}}
	_, err := RunContext(ctx, cfg, warmOracleMix(t, 4))
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("cancelled run returned %v, want ErrInterrupted", err)
	}
	if segments != 1 {
		t.Fatalf("warmup ran %d segments after cancellation, want 1", segments)
	}
	waitGoroutines(t, base)
}
