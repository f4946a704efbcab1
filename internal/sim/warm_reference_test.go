package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"nucasim/internal/cpu"
	"nucasim/internal/dram"
	"nucasim/internal/hierarchy"
	"nucasim/internal/llc"
	"nucasim/internal/telemetry"
	"nucasim/internal/workload"
)

// warmSerialReference is functional warmup without the pipeline: every
// core runs chunk k through its direct port, in core order, before any
// core starts chunk k+1. warmFunctionalSegment must leave the machine in
// exactly the state this leaves it in.
func warmSerialReference(m *Machine, n uint64) {
	for done := uint64(0); done < n; done += warmChunk {
		for _, c := range m.Cores {
			c.WarmFunctional(min(warmChunk, n-done))
		}
	}
}

// machineOutcome is everything functional warmup or timed cycles can
// change.
type machineOutcome struct {
	hier       []hierarchy.Stats
	llcCores   []llc.AccessStats
	llcTotal   llc.AccessStats
	mem        dram.Stats
	histograms map[string]telemetry.HistogramSnapshot
	cores      []cpu.State // includes each generator and branch predictor
	trace      []byte
	telem      telemetry.State
	checkpoint []byte // adaptive only, without telem (compared as a value)
	verified   uint64
	verifyErr  error
}

// warmOracleMix is the warmup benchmark workload's mix.
func warmOracleMix(t *testing.T, cores int) []workload.AppParams {
	return mixOf(t, "ammp", "art", "mcf", "swim")[:cores]
}

// warmOnce builds a machine for cfg, warms it by n instructions per core
// with warm, and captures the outcome.
func warmOnce(t *testing.T, cfg Config, n uint64, warm func(*Machine, uint64)) machineOutcome {
	t.Helper()
	var trace bytes.Buffer
	mix := warmOracleMix(t, cfg.Cores)
	m := newTracedMachine(cfg, mix, &trace)
	warm(m, n)
	return captureOutcome(t, m, mix, &trace)
}

// newTracedMachine builds a machine for cfg whose event trace, when
// telemetry is on, goes to trace.
func newTracedMachine(cfg Config, mix []workload.AppParams, trace *bytes.Buffer) *Machine {
	if cfg.Telemetry != nil {
		tc := *cfg.Telemetry
		tc.TraceWriter = trace
		cfg.Telemetry = &tc
	}
	return NewMachine(cfg, mix)
}

// captureOutcome captures m's outcome; trace is the buffer its event
// trace streams to, which the capture drains.
func captureOutcome(t *testing.T, m *Machine, mix []workload.AppParams, trace *bytes.Buffer) machineOutcome {
	t.Helper()
	var o machineOutcome
	for i, c := range m.Cores {
		o.hier = append(o.hier, m.Hierarchy.Stats(i))
		o.llcCores = append(o.llcCores, m.Org.CoreStats(i))
		o.cores = append(o.cores, c.Snapshot())
	}
	o.llcTotal = m.Org.TotalStats()
	o.mem = m.Memory.Stats
	if m.Telemetry != nil {
		o.histograms = m.Telemetry.Registry.Histograms()
	}
	if m.Adaptive != nil {
		ck := m.captureCheckpoint(m.snap(), 0, mix)
		// Gob writes maps in iteration order, so the registry is compared
		// as a value and the rest as bytes.
		o.telem, ck.Telem = ck.Telem, telemetry.State{}
		var err error
		if o.checkpoint, err = ck.Encode(); err != nil {
			t.Fatal(err)
		}
	}
	if m.Telemetry != nil {
		m.Telemetry.Trace.Flush()
		o.trace = bytes.Clone(trace.Bytes())
		trace.Reset()
	}
	if m.Verifier != nil {
		o.verified, o.verifyErr = m.Verifier.EpochsVerified(), m.Verifier.Err()
	}
	return o
}

func compareOutcomes(t *testing.T, got, want machineOutcome) {
	t.Helper()
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"hierarchy stats", got.hier, want.hier},
		{"LLC per-core stats", got.llcCores, want.llcCores},
		{"LLC total stats", got.llcTotal, want.llcTotal},
		{"memory stats", got.mem, want.mem},
		{"histograms", got.histograms, want.histograms},
		{"core state", got.cores, want.cores},
		{"telemetry state", got.telem, want.telem},
		{"verified epochs", got.verified, want.verified},
		{"verifier error", got.verifyErr, want.verifyErr},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("%s differ:\n got %+v\nwant %+v", f.name, f.got, f.want)
		}
	}
	if !bytes.Equal(got.trace, want.trace) {
		t.Fatalf("event trace differs (%d vs %d bytes)", len(got.trace), len(want.trace))
	}
	if !bytes.Equal(got.checkpoint, want.checkpoint) {
		t.Fatal("checkpoint bytes differ")
	}
}

// warmOracleLong is the oracle's multi-chunk warmup length: 100 whole
// chunks and a partial one.
func warmOracleLong() uint64 {
	if testing.Short() || raceEnabled {
		return 20_777
	}
	return 200_777
}

// TestWarmPipelineMatchesSerial is the pipeline's exactness oracle: over
// every scheme, core count, chunk-boundary length, telemetry setting and
// GOMAXPROCS, the pipelined warmup leaves the machine bit-identical to
// the serial chunk loop.
func TestWarmPipelineMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, scheme := range Schemes() {
			for _, cores := range []int{1, 2, 4} {
				if cores == 1 && (scheme == SchemeAdaptive || scheme == SchemeCoop) {
					continue // both share capacity between cores: 2 at least
				}
				for _, n := range []uint64{1, warmChunk - 1, warmChunk, warmChunk + 1, warmOracleLong()} {
					for _, telem := range []bool{false, true} {
						cfg := Config{Scheme: scheme, Cores: cores, Seed: 5}
						if telem {
							cfg.Telemetry = &telemetry.Config{}
						}
						name := fmt.Sprintf("procs=%d/%s/cores=%d/n=%d/telemetry=%v", procs, scheme, cores, n, telem)
						t.Run(name, func(t *testing.T) {
							want := warmOnce(t, cfg, n, warmSerialReference)
							got := warmOnce(t, cfg, n, (*Machine).warmFunctionalSegment)
							compareOutcomes(t, got, want)
						})
					}
				}
			}
		}
	}
}

// TestWarmPipelineMatchesSerialReplayVerify runs the oracle with the
// replay verifier consuming the full event trace during warmup.
func TestWarmPipelineMatchesSerialReplayVerify(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	cfg := Config{Scheme: SchemeAdaptive, Cores: 4, Seed: 5, ReplayVerify: true,
		Telemetry: &telemetry.Config{}}
	n := warmOracleLong()
	want := warmOnce(t, cfg, n, warmSerialReference)
	got := warmOnce(t, cfg, n, (*Machine).warmFunctionalSegment)
	compareOutcomes(t, got, want)
	if got.verifyErr != nil || got.verified == 0 {
		t.Fatalf("verifier checked %d epochs, error %v; want some and none", got.verified, got.verifyErr)
	}
}
