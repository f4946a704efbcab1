package sim

import (
	"runtime"
	"testing"

	"nucasim/internal/workload"
)

// BenchmarkWarmFunctional measures functional warmup alone: a 4-core
// adaptive machine (the warmup benchmark workload's ammp/art/mcf/swim
// mix) fast-forwarded by 200k instructions per core. Run it at -cpu 1,2:
// the one-CPU figure is the cost a host without a spare CPU pays.
func BenchmarkWarmFunctional(b *testing.B) {
	var mix []workload.AppParams
	for _, name := range []string{"ammp", "art", "mcf", "swim"} {
		p, _ := workload.ByName(name)
		mix = append(mix, p)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := NewMachine(Config{Scheme: SchemeAdaptive, Seed: 1}, mix)
		b.StartTimer()
		m.WarmFunctional(200_000)
	}
}

// timedMixes are the machines BenchmarkTimedCycles runs: the Table 1
// machine and mix, and the adaptive LLC under a memory-bound and a
// compute-bound mix.
var timedMixes = []struct {
	name   string
	scheme Scheme
	apps   []string
}{
	{"table1", SchemePrivate, []string{"gzip", "mcf", "ammp", "wupwise"}},
	{"memory", SchemeAdaptive, []string{"ammp", "art", "mcf", "swim"}},
	{"compute", SchemeAdaptive, []string{"gcc", "crafty", "eon", "mesa"}},
}

// BenchmarkTimedCycles measures the timed loop alone: Machine.Run over
// 100k cycles of a machine fast-forwarded by 100k instructions per core,
// which is built and warmed outside the timer. make bench-smoke gates it
// at 0 allocs/op.
func BenchmarkTimedCycles(b *testing.B) {
	for _, tm := range timedMixes {
		var mix []workload.AppParams
		for _, name := range tm.apps {
			p, _ := workload.ByName(name)
			mix = append(mix, p)
		}
		b.Run(tm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := NewMachine(Config{Scheme: tm.scheme, Seed: 1}, mix)
				m.WarmFunctional(100_000)
				runtime.GC()
				b.StartTimer()
				m.Run(100_000)
			}
		})
	}
}
