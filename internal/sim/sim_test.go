package sim

import (
	"reflect"
	"testing"

	"nucasim/internal/cache"
	"nucasim/internal/memaddr"
	"nucasim/internal/workload"
)

// small returns a config sized for unit tests (fast, still end-to-end).
func small(scheme Scheme) Config {
	return Config{
		Scheme:             scheme,
		Seed:               7,
		WarmupInstructions: 60_000,
		WarmupCycles:       10_000,
		MeasureCycles:      40_000,
	}
}

func mixOf(t testing.TB, names ...string) []workload.AppParams {
	t.Helper()
	var mix []workload.AppParams
	for _, n := range names {
		p, ok := workload.ByName(n)
		if !ok {
			t.Fatalf("unknown app %s", n)
		}
		mix = append(mix, p)
	}
	return mix
}

// TestTable1Geometry checks the scheme table against Table 1: every
// baseline NewMachine builds has the paper's arrays, hit latency and
// memory channel (a cold miss is ready after 258 cycles on the private
// channel, 260 on the shared cache's).
func TestTable1Geometry(t *testing.T) {
	cases := []struct {
		scheme              Scheme
		arrays, bytes, ways int
		hit, miss           uint64
	}{
		{SchemePrivate, 4, 1 << 20, 4, 14, 258},
		{SchemeShared, 1, 4 << 20, 16, 19, 260},
		// The 4x bound is 4 MB per core at the shared array's latency.
		{SchemePrivate4x, 4, 4 << 20, 16, 19, 258},
		{SchemeCoop, 4, 1 << 20, 4, 14, 258},
	}
	mix := mixOf(t, "ammp", "swim", "lucas", "gzip")
	for _, tc := range cases {
		t.Run(string(tc.scheme), func(t *testing.T) {
			m := NewMachine(Config{Scheme: tc.scheme}, mix)
			org := m.Org.(interface{ Cache(int) *cache.Cache })
			for i := 0; i < tc.arrays; i++ {
				if g := org.Cache(i).Geom; g.SizeBytes() != tc.bytes || g.Ways != tc.ways {
					t.Fatalf("array %d is %d bytes %d-way, want %d bytes %d-way", i, g.SizeBytes(), g.Ways, tc.bytes, tc.ways)
				}
			}
			a := memaddr.Addr(5 << 18).WithSpace(0)
			if ready, hit := m.Org.Access(0, a, false, 0); hit || ready != tc.miss {
				t.Fatalf("cold access ready at %d (hit=%v), want a miss at %d", ready, hit, tc.miss)
			}
			if ready, hit := m.Org.Access(0, a, false, 1000); !hit || ready != 1000+tc.hit {
				t.Fatalf("hit ready at %d (hit=%v), want %d", ready, hit, 1000+tc.hit)
			}
		})
	}
}

func TestRunAllSchemesProduceProgress(t *testing.T) {
	mix := mixOf(t, "wupwise", "gzip", "gcc", "eon")
	for _, s := range Schemes() {
		r := Run(small(s), mix)
		if r.Scheme != s {
			t.Fatalf("result scheme %s, want %s", r.Scheme, s)
		}
		if len(r.PerCoreIPC) != 4 {
			t.Fatalf("%s: %d cores in result", s, len(r.PerCoreIPC))
		}
		for c, ipc := range r.PerCoreIPC {
			if ipc <= 0 || ipc > 4 {
				t.Fatalf("%s core %d: IPC %v out of range", s, c, ipc)
			}
		}
		if r.HarmonicIPC <= 0 || r.HarmonicIPC > r.MeanIPC+1e-12 {
			t.Fatalf("%s: harmonic %v vs mean %v inconsistent", s, r.HarmonicIPC, r.MeanIPC)
		}
		if r.Mix[0] != "wupwise" || r.Mix[3] != "eon" {
			t.Fatalf("%s: mix names wrong: %v", s, r.Mix)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	mix := mixOf(t, "gzip", "mcf", "gcc", "mesa")
	a := Run(small(SchemeAdaptive), mix)
	b := Run(small(SchemeAdaptive), mix)
	for i := range a.PerCoreIPC {
		if a.PerCoreIPC[i] != b.PerCoreIPC[i] {
			t.Fatalf("core %d IPC differs: %v vs %v", i, a.PerCoreIPC[i], b.PerCoreIPC[i])
		}
	}
	if a.LLCTotal != b.LLCTotal {
		t.Fatalf("LLC stats differ:\n%+v\n%+v", a.LLCTotal, b.LLCTotal)
	}
}

// TestEverySchemeRunsTheSameStreams: the front end (generators,
// predictors, TLBs, L1/L2) does not depend on the L3 organization, so
// after the same functional warmup every scheme's cores must stand
// exactly where private's do. A scheme whose build drew from the
// machine's stream before the per-core generators forked from it would
// run different programs, and comparing it with the others at one seed
// would not be a paired comparison.
func TestEverySchemeRunsTheSameStreams(t *testing.T) {
	mix := mixOf(t, "ammp", "art", "mcf", "swim")
	warm := func(s Scheme) *Machine {
		m := NewMachine(small(s), mix)
		m.WarmFunctional(50_000)
		return m
	}
	ref := warm(SchemePrivate)
	for _, s := range Schemes() {
		m := warm(s)
		for i := range m.Cores {
			if !reflect.DeepEqual(m.Cores[i].Snapshot(), ref.Cores[i].Snapshot()) {
				t.Errorf("%s: core %d state differs from private's", s, i)
			}
			if got, want := m.Hierarchy.Stats(i), ref.Hierarchy.Stats(i); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: core %d hierarchy stats %+v, private's %+v", s, i, got, want)
			}
		}
	}
}

func TestSeedChangesResults(t *testing.T) {
	mix := mixOf(t, "gzip", "mcf", "gcc", "mesa")
	cfg := small(SchemePrivate)
	a := Run(cfg, mix)
	cfg.Seed = 8
	b := Run(cfg, mix)
	same := true
	for i := range a.PerCoreIPC {
		if a.PerCoreIPC[i] != b.PerCoreIPC[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should change results")
	}
}

func TestAdaptiveResultCarriesPartitionState(t *testing.T) {
	mix := mixOf(t, "ammp", "swim", "lucas", "lucas")
	r := Run(small(SchemeAdaptive), mix)
	if len(r.PartitionLimits) != 4 {
		t.Fatalf("partition limits missing: %v", r.PartitionLimits)
	}
	sum := 0
	for _, m := range r.PartitionLimits {
		if m < 1 {
			t.Fatalf("limit below 1: %v", r.PartitionLimits)
		}
		sum += m
	}
	if sum != 12 {
		t.Fatalf("limits sum %d, want 12", sum)
	}
	// Non-adaptive schemes must not report limits.
	rp := Run(small(SchemePrivate), mix)
	if rp.PartitionLimits != nil {
		t.Fatal("private scheme should not report partition limits")
	}
}

func TestIntensityMetricsPopulated(t *testing.T) {
	mix := mixOf(t, "gzip", "gzip", "gzip", "gzip")
	r := Run(small(SchemePrivate), mix)
	for c := range mix {
		if r.LLCAccessesPerKCycle[c] <= 0 {
			t.Fatalf("core %d: no measured LLC accesses", c)
		}
		if r.LLCMissesPerKCycle[c] > r.LLCAccessesPerKCycle[c] {
			t.Fatalf("core %d: misses exceed accesses", c)
		}
	}
}

func TestMachineMixSizeValidated(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong mix size")
		}
	}()
	p, _ := workload.ByName("gzip")
	NewMachine(Config{}, []workload.AppParams{p})
}

func TestScaledConfigRuns(t *testing.T) {
	mix := mixOf(t, "gzip", "mcf", "gcc", "mesa")
	cfg := small(SchemeAdaptive)
	cfg.Scaled = true
	r := Run(cfg, mix)
	if r.HarmonicIPC <= 0 {
		t.Fatal("scaled run produced no progress")
	}
}

func TestLargerCacheConfigRuns(t *testing.T) {
	mix := mixOf(t, "ammp", "art", "twolf", "vpr")
	cfg := small(SchemeAdaptive)
	cfg.L3BytesPerCore = 2 << 20
	r := Run(cfg, mix)
	if r.HarmonicIPC <= 0 {
		t.Fatal("8MB run produced no progress")
	}
}

func TestSharedOutperformsPrivateForCapacityHungryMix(t *testing.T) {
	// Four ammp copies want ~10 ways each: even a shared cache thrashes,
	// but one ammp with three idle partners should exploit shared
	// capacity. Use ammp + three low-footprint apps.
	mix := mixOf(t, "ammp", "eon", "mesa", "crafty")
	cfg := Config{Seed: 5, WarmupInstructions: 400_000, WarmupCycles: 50_000, MeasureCycles: 200_000}
	cfg.Scheme = SchemePrivate
	rp := Run(cfg, mix)
	cfg.Scheme = SchemeShared
	rs := Run(cfg, mix)
	if rs.PerCoreIPC[0] <= rp.PerCoreIPC[0] {
		t.Fatalf("ammp should gain from shared capacity: %.4f vs %.4f",
			rs.PerCoreIPC[0], rp.PerCoreIPC[0])
	}
}

func TestAdaptiveProtectsAgainstStreamPollution(t *testing.T) {
	// gzip (fits 4 ways) + three streamers: under the adaptive scheme
	// gzip must not lose its working set to streaming pollution, so its
	// IPC should be at least close to its private-cache IPC and far above
	// its fate under uncontrolled cooperative sharing.
	mix := mixOf(t, "gzip", "swim", "lucas", "applu")
	cfg := Config{Seed: 3, WarmupInstructions: 400_000, WarmupCycles: 50_000, MeasureCycles: 200_000}
	cfg.Scheme = SchemePrivate
	rp := Run(cfg, mix)
	cfg.Scheme = SchemeAdaptive
	ra := Run(cfg, mix)
	if ra.PerCoreIPC[0] < rp.PerCoreIPC[0]*0.8 {
		t.Fatalf("adaptive let gzip be polluted: %.4f vs private %.4f",
			ra.PerCoreIPC[0], rp.PerCoreIPC[0])
	}
}
