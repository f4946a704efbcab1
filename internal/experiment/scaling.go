package experiment

import (
	"nucasim/internal/sim"
	"nucasim/internal/stats"
	"nucasim/internal/sweep"
	"nucasim/internal/workload"
)

// CoreScalingResult carries the §6 scaling study.
type CoreScalingResult struct {
	Table *stats.Table
	// GainAtCores maps core count to the adaptive scheme's average
	// harmonic-IPC gain over private caches (percent).
	GainAtCores map[int]float64
}

// CoreScaling tests the paper's §6 conjecture — "we believe the scheme
// will scale to systems with a higher processor count" — by running the
// Figure 6 experiment at 4 and 8 cores. Each core keeps its 1 MB local
// partition (the aggregate cache and the memory channel load scale with
// the core count, as they would in a real part), and the sharing engine's
// structures scale as described in §2.7.
func CoreScaling(opt Options) CoreScalingResult {
	opt = opt.withDefaults()
	widths := []int{4, 8}
	var specs []sweep.Spec
	for _, cores := range widths {
		specs = append(specs, opt.specs(sweep.Base{}, opt.draw(workload.Intensive(), cores), sim.SchemePrivate, sim.SchemeAdaptive)...)
	}
	results := opt.run(specs)
	res := CoreScalingResult{
		Table:       stats.NewTable("§6 scaling: adaptive vs private harmonic-IPC speedup", "speedup"),
		GainAtCores: map[int]float64{},
	}
	for w, cores := range widths {
		var acc stats.Accumulator
		for _, r := range results[w*opt.Mixes : (w+1)*opt.Mixes] {
			acc.Add(stats.Speedup(r[1].HarmonicIPC, r[0].HarmonicIPC))
		}
		res.Table.AddRow(coresLabel(cores), acc.Mean())
		res.GainAtCores[cores] = (acc.Mean() - 1) * 100
	}
	return res
}

func coresLabel(cores int) string {
	if cores == 4 {
		return "4 cores (paper baseline)"
	}
	return "8 cores (§6 conjecture)"
}
