package workload

import (
	"reflect"
	"testing"

	"nucasim/internal/cache"
	"nucasim/internal/memaddr"
	"nucasim/internal/rng"
)

func gen(t *testing.T, name string, seed uint64) *Generator {
	t.Helper()
	p, ok := ByName(name)
	if !ok {
		t.Fatalf("unknown app %s", name)
	}
	return NewGenerator(p, 0, rng.New(seed))
}

func TestSuiteShape(t *testing.T) {
	suite := Suite()
	if len(suite) != 24 {
		t.Fatalf("suite has %d apps, want 24 (26 minus vortex and sixtrack)", len(suite))
	}
	seen := map[string]bool{}
	ints, fps := 0, 0
	for _, p := range suite {
		if seen[p.Name] {
			t.Fatalf("duplicate app %s", p.Name)
		}
		seen[p.Name] = true
		switch p.Suite {
		case "int":
			ints++
		case "fp":
			fps++
		default:
			t.Fatalf("%s: bad suite %q", p.Name, p.Suite)
		}
		sum := 0.0
		for _, l := range p.Layers {
			sum += l.Frac
			if l.Blocks <= 0 {
				t.Fatalf("%s: layer with no blocks", p.Name)
			}
		}
		if sum < 0.95 || sum > 1.05 {
			t.Fatalf("%s: layer fractions sum to %.3f", p.Name, sum)
		}
		if f := p.LoadFrac + p.StoreFrac + p.BranchFrac; f >= 0.9 {
			t.Fatalf("%s: mix leaves no ALU work (%.2f)", p.Name, f)
		}
	}
	if seen["vortex"] || seen["sixtrack"] {
		t.Fatal("vortex and sixtrack must be excluded (paper §3)")
	}
	if ints != 11 || fps != 13 {
		t.Fatalf("suite split int=%d fp=%d, want 11+13", ints, fps)
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("mcf"); !ok {
		t.Fatal("mcf missing")
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Fatal("unknown app resolved")
	}
}

// TestByNameResolvesEveryApp pins the one app lookup: every program a
// figure runs — the suite, the parallel apps and the idle filler —
// resolves by name to itself, and no two share a name.
func TestByNameResolvesEveryApp(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range append(append(Suite(), ParallelSuite()...), Idle()) {
		if seen[p.Name] {
			t.Errorf("duplicate app name %q", p.Name)
		}
		seen[p.Name] = true
		got, ok := ByName(p.Name)
		if !ok {
			t.Errorf("ByName(%q) not found", p.Name)
			continue
		}
		if !reflect.DeepEqual(got, p) {
			t.Errorf("ByName(%q) = %+v, want %+v", p.Name, got, p)
		}
	}
}

func TestIntensivePartition(t *testing.T) {
	in, out := Intensive(), NonIntensive()
	if len(in)+len(out) != 24 {
		t.Fatalf("partition sizes %d+%d != 24", len(in), len(out))
	}
	if len(in) < 8 {
		t.Fatalf("only %d intensive apps; Figure 6 needs a healthy pool", len(in))
	}
	for _, p := range []string{"mcf", "art", "ammp", "twolf", "vpr", "gzip"} {
		found := false
		for _, q := range in {
			if q.Name == p {
				found = true
			}
		}
		if !found {
			t.Errorf("%s should be classified intensive", p)
		}
	}
	for _, p := range []string{"eon", "crafty", "mesa", "wupwise"} {
		for _, q := range in {
			if q.Name == p {
				t.Errorf("%s should be non-intensive", p)
			}
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a, b := gen(t, "gcc", 42), gen(t, "gcc", 42)
	var ia, ib Instr
	for i := 0; i < 5000; i++ {
		a.Next(&ia)
		b.Next(&ib)
		if ia != ib {
			t.Fatalf("streams diverged at %d: %+v vs %+v", i, ia, ib)
		}
	}
}

func TestGeneratorMixMatchesParams(t *testing.T) {
	g := gen(t, "gzip", 7)
	var ins Instr
	const n = 200000
	counts := map[Class]int{}
	for i := 0; i < n; i++ {
		g.Next(&ins)
		counts[ins.Class]++
	}
	loadFrac := float64(counts[Load]) / n
	branchFrac := float64(counts[Branch]) / n
	p, _ := ByName("gzip")
	// Branch slots consume part of the stream, so load share is scaled
	// by (1 - branchShare); allow loose tolerance.
	if branchFrac < p.BranchFrac*0.7 || branchFrac > p.BranchFrac*1.3 {
		t.Fatalf("branch frac %.3f, want ~%.3f", branchFrac, p.BranchFrac)
	}
	wantLoad := p.LoadFrac * (1 - branchFrac)
	if loadFrac < wantLoad*0.8 || loadFrac > wantLoad*1.2 {
		t.Fatalf("load frac %.3f, want ~%.3f", loadFrac, wantLoad)
	}
}

func TestAddressesAreSpaceTagged(t *testing.T) {
	p, _ := ByName("mcf")
	g := NewGenerator(p, 3, rng.New(1))
	var ins Instr
	for i := 0; i < 10000; i++ {
		g.Next(&ins)
		if ins.PC.Space() != 3 {
			t.Fatalf("PC in space %d, want 3", ins.PC.Space())
		}
		if (ins.Class == Load || ins.Class == Store) && ins.Addr.Space() != 3 {
			t.Fatalf("data address in space %d, want 3", ins.Addr.Space())
		}
	}
}

func TestDependencyDistancesPositive(t *testing.T) {
	g := gen(t, "mcf", 5)
	var ins Instr
	sum, n := 0.0, 0
	for i := 0; i < 50000; i++ {
		g.Next(&ins)
		if ins.Dep1 < 1 {
			t.Fatalf("Dep1 = %d, want >= 1", ins.Dep1)
		}
		sum += float64(ins.Dep1)
		n++
	}
	mean := sum / float64(n)
	// pickProducer walks back to the nearest value producer, so the mean
	// exceeds the raw geometric mean; it must remain short for a serial
	// app like mcf (MeanDepDist 1.6) and far shorter than for a highly
	// parallel one.
	p, _ := ByName("mcf")
	if mean < p.MeanDepDist*0.8 || mean > p.MeanDepDist*3 {
		t.Fatalf("mean dep distance %.2f, want within [%.2f, %.2f]", mean, p.MeanDepDist*0.8, p.MeanDepDist*3)
	}
	g2 := gen(t, "wupwise", 5)
	sum2, n2 := 0.0, 0
	for i := 0; i < 50000; i++ {
		g2.Next(&ins)
		sum2 += float64(ins.Dep1)
		n2++
	}
	if mean2 := sum2 / float64(n2); mean2 <= mean {
		t.Fatalf("wupwise (dep dist 12) should have longer deps than mcf: %.2f vs %.2f", mean2, mean)
	}
}

func TestBranchTargetsWithinCode(t *testing.T) {
	g := gen(t, "gcc", 9)
	var ins Instr
	codeBytes := uint64(1024) * memaddr.BlockSize
	for i := 0; i < 100000; i++ {
		g.Next(&ins)
		if ins.Class == Branch && ins.Taken {
			off := uint64(ins.Target) & (1<<56 - 1)
			if off >= codeBytes {
				t.Fatalf("branch target %#x outside code region", off)
			}
		}
	}
}

func TestPCStreamLoops(t *testing.T) {
	g := gen(t, "eon", 11)
	var ins Instr
	seen := map[memaddr.Addr]bool{}
	for i := 0; i < 300000; i++ {
		g.Next(&ins)
		seen[ins.PC.Block()] = true
	}
	p, _ := ByName("eon")
	codeBlocks := p.CodeBlocks
	if codeBlocks == 0 {
		codeBlocks = 256
	}
	if len(seen) > codeBlocks {
		t.Fatalf("PC stream touched %d blocks, code region is %d", len(seen), codeBlocks)
	}
	if len(seen) < codeBlocks/2 {
		t.Fatalf("PC stream covered only %d of %d code blocks", len(seen), codeBlocks)
	}
}

// missRatioAtWays replays an app's data stream through Table 1 L1D/L2D
// filters into an isolated 4096-set LRU probe cache at the given
// associativity and returns the probe's miss ratio — the Figure 3 setup
// (the paper's curves are L3 misses, i.e. post-L2 traffic).
func missRatioAtWays(t *testing.T, name string, ways int) float64 {
	t.Helper()
	p, _ := ByName(name)
	g := NewGenerator(p, 0, rng.New(123))
	l1 := cache.New("l1", memaddr.NewGeometry(64<<10, 2))
	l2 := cache.New("l2", memaddr.NewGeometry(256<<10, 4))
	c := cache.New("probe", memaddr.NewGeometrySets(4096, ways))
	var ins Instr
	// Warm then measure.
	for phase := 0; phase < 2; phase++ {
		c.Stats = cache.Stats{}
		for i := 0; i < 600000; i++ {
			g.Next(&ins)
			if ins.Class != Load && ins.Class != Store {
				continue
			}
			if hit, _ := l1.Access(ins.Addr, false); hit {
				continue
			}
			l1.Install(ins.Addr, false, 0)
			if hit, _ := l2.Access(ins.Addr, false); hit {
				continue
			}
			l2.Install(ins.Addr, false, 0)
			if hit, _ := c.Access(ins.Addr, false); !hit {
				c.Install(ins.Addr, false, 0)
			}
		}
	}
	if c.Stats.Accesses == 0 {
		return 0
	}
	return float64(c.Stats.Misses) / float64(c.Stats.Accesses)
}

func TestFig3KneeGzipNeedsFourWays(t *testing.T) {
	m2 := missRatioAtWays(t, "gzip", 2)
	m4 := missRatioAtWays(t, "gzip", 4)
	if m4 >= m2*0.5 {
		t.Fatalf("gzip should avoid most misses by 4 ways: miss@2=%.4f miss@4=%.4f", m2, m4)
	}
	m8 := missRatioAtWays(t, "gzip", 8)
	// The knee completing at 4 ways dominates any residual improvement
	// beyond it (interleaved stream traffic keeps the tail from being
	// perfectly flat, as in the measured curves of Figure 3).
	if m2-m4 <= m4-m8 {
		t.Fatalf("knee not dominant: miss@2=%.4f miss@4=%.4f miss@8=%.4f", m2, m4, m8)
	}
}

func TestFig3McfFlatCurve(t *testing.T) {
	m1 := missRatioAtWays(t, "mcf", 1)
	m8 := missRatioAtWays(t, "mcf", 8)
	// mcf's misses are dominated by the huge uniform layer ("likely cold
	// misses"): extra ways recover only a small relative fraction.
	if rel := (m1 - m8) / m1; rel > 0.25 {
		t.Fatalf("mcf should be way-insensitive: miss@1=%.4f miss@8=%.4f rel drop %.2f", m1, m8, rel)
	}
	// And it must be far flatter than a capacity-hungry app (art), which
	// is the Figure 3 contrast the partitioner exploits.
	a1 := missRatioAtWays(t, "art", 1)
	a12 := missRatioAtWays(t, "art", 12)
	if (a1-a12)/a1 <= 2*(m1-m8)/m1 {
		t.Fatalf("art should gain far more from ways than mcf: art %.4f→%.4f, mcf %.4f→%.4f", a1, a12, m1, m8)
	}
}

func TestRandomMixProperties(t *testing.T) {
	r := rng.New(77)
	pool := Intensive()
	mix := RandomMix(r, pool, 4)
	if len(mix) != 4 {
		t.Fatalf("mix size %d", len(mix))
	}
	for _, p := range mix {
		if !p.Intensive {
			t.Fatalf("mix drew non-intensive app %s from intensive pool", p.Name)
		}
	}
	// With replacement: over many draws duplicates must occur.
	dup := false
	for i := 0; i < 200 && !dup; i++ {
		m := RandomMix(r, pool, 4)
		names := map[string]bool{}
		for _, p := range m {
			if names[p.Name] {
				dup = true
			}
			names[p.Name] = true
		}
	}
	if !dup {
		t.Fatal("RandomMix never produced a duplicate in 200 draws (should sample with replacement)")
	}
}

func TestMixNames(t *testing.T) {
	a, _ := ByName("art")
	b, _ := ByName("mcf")
	if s := MixNames([]AppParams{a, b}); s != "art+mcf" {
		t.Fatalf("MixNames = %q", s)
	}
}

func TestRepeatLayerSpatialLocality(t *testing.T) {
	p := AppParams{
		Name: "syn", LoadFrac: 1.0, MeanDepDist: 3,
		Layers: []Layer{{Frac: 1, Blocks: 1 << 16, Repeat: 4}},
	}
	g := NewGenerator(p, 0, rng.New(3))
	var ins Instr
	var last memaddr.Addr
	sameBlock, total := 0, 0
	for i := 0; i < 40000; i++ {
		g.Next(&ins)
		if ins.Class != Load {
			continue
		}
		if total > 0 && ins.Addr.Block() == last.Block() {
			sameBlock++
		}
		last = ins.Addr
		total++
	}
	frac := float64(sameBlock) / float64(total)
	if frac < 0.70 || frac > 0.80 {
		t.Fatalf("repeat-4 layer should revisit blocks ~75%% of the time, got %.2f", frac)
	}
}

func TestGeneratorPanicsOnBadParams(t *testing.T) {
	for name, p := range map[string]AppParams{
		"no layers":  {Name: "x"},
		"zero block": {Name: "x", Layers: []Layer{{Frac: 1, Blocks: 0}}},
		"zero frac":  {Name: "x", Layers: []Layer{{Frac: 0, Blocks: 4}}},
		"neg stride": {Name: "x", Layers: []Layer{{Frac: 1, Blocks: 4, Stride: -1}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			NewGenerator(p, 0, rng.New(1))
		}()
	}
}

// BenchmarkGeneratorNext times one Next over the apps of the benchmark's
// warmup mix (ammp, art, mcf, swim) and table1 mix (gzip, mcf, ammp,
// wupwise), and under untimed/ one NextUntimed, functional warmup's
// call, over the same apps.
func BenchmarkGeneratorNext(b *testing.B) {
	apps := []string{"ammp", "art", "mcf", "swim", "gzip", "wupwise"}
	bench := func(name string, untimed bool) func(*testing.B) {
		return func(b *testing.B) {
			p, _ := ByName(name)
			g := NewGenerator(p, 0, rng.New(1))
			var ins Instr
			b.ReportAllocs()
			b.ResetTimer()
			if untimed {
				for i := 0; i < b.N; i++ {
					g.NextUntimed(&ins)
				}
				return
			}
			for i := 0; i < b.N; i++ {
				g.Next(&ins)
			}
		}
	}
	for _, name := range apps {
		b.Run(name, bench(name, false))
	}
	b.Run("untimed", func(b *testing.B) {
		for _, name := range apps {
			b.Run(name, bench(name, true))
		}
	})
}
