package sim

import (
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
