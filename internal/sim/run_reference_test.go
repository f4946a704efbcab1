package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"nucasim/internal/telemetry"
)

// runEveryCycle is Machine.Run without event skipping: every core steps
// on every cycle, in core order. It is the oracle Run must match.
func (m *Machine) runEveryCycle(cycles uint64) {
	end := m.now + cycles
	for ; m.now < end; m.now++ {
		for _, c := range m.Cores {
			c.Step(m.now)
		}
	}
}

// runOracleMixes are the Table 1 mix and the memory- and compute-bound
// mixes of BenchmarkTimedCycles.
var runOracleMixes = [][]string{
	{"gzip", "mcf", "ammp", "wupwise"},
	{"ammp", "art", "mcf", "swim"},
	{"gcc", "crafty", "eon", "mesa"},
}

// runOracleLengths are Run calls made back to back: single cycles, a
// short odd run, and runs around and beyond measureChunk.
var runOracleLengths = []uint64{1, 7, measureChunk - 1, measureChunk, measureChunk + 1, 20_000}

// TestRunMatchesEveryCycleLoop is the event clock's exactness oracle:
// over every scheme, the three mixes, Run lengths around the chunk size
// and telemetry off and on, Machine.Run leaves the machine bit-identical
// to stepping every core on every cycle after each call — every core
// State, the hierarchy, LLC and memory statistics, the registry
// histograms, the event trace and the adaptive checkpoint — and the two
// runs encode the same Result.
func TestRunMatchesEveryCycleLoop(t *testing.T) {
	warm := uint64(20_000)
	if testing.Short() || raceEnabled {
		warm = 4_000
	}
	var measure uint64
	for _, n := range runOracleLengths {
		measure += n
	}
	for _, scheme := range Schemes() {
		for _, apps := range runOracleMixes {
			for _, telem := range []bool{false, true} {
				// A short period makes the adaptive scheme repartition
				// inside the timed cycles, not only during warmup.
				cfg := Config{Scheme: scheme, Seed: 3, MeasureCycles: measure, RepartitionPeriod: 200}
				if telem {
					cfg.Telemetry = &telemetry.Config{}
				}
				t.Run(fmt.Sprintf("%s/%s/telemetry=%v", scheme, apps[0], telem), func(t *testing.T) {
					mix := mixOf(t, apps...)
					var traceA, traceB bytes.Buffer
					a := newTracedMachine(cfg, mix, &traceA)
					b := newTracedMachine(cfg, mix, &traceB)
					a.WarmFunctional(warm)
					b.WarmFunctional(warm)
					for _, m := range []*Machine{a, b} {
						m.origin = &origin{cycle: m.now, base: m.snap()}
					}
					for _, n := range runOracleLengths {
						a.Run(n)
						b.runEveryCycle(n)
						if a.now != b.now {
							t.Fatalf("clock at %d, want %d", a.now, b.now)
						}
						got := captureOutcome(t, a, &traceA)
						want := captureOutcome(t, b, &traceB)
						compareOutcomes(t, got, want)
					}
					got, err := json.Marshal(withoutWall(a.results(a.Cfg.MeasureCycles)))
					if err != nil {
						t.Fatal(err)
					}
					want, err := json.Marshal(withoutWall(b.results(b.Cfg.MeasureCycles)))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("results differ:\n got %s\nwant %s", got, want)
					}
				})
			}
		}
	}
}
