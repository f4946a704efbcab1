package workload

import (
	"reflect"
	"testing"

	"nucasim/internal/rng"
)

// untimedApps are hand-built apps that reach each branch of the untimed
// producer path that consumes no draw or a different one: a unit
// dependency distance (no geometric draw at all), no pointer chase, and
// a certain pointer chase both where the last load is inside the
// dependency window (no draw) and where it mostly is not (a geometric
// draw).
func untimedApps() []AppParams {
	layers := []Layer{{Frac: 0.7, Blocks: 512}, {Frac: 0.3, Blocks: 1 << 16, Random: true}}
	return []AppParams{
		{Name: "unitdep", LoadFrac: 0.3, StoreFrac: 0.1, BranchFrac: 0.1, MeanDepDist: 1,
			PointerChase: 0.5, RandomBranchFrac: 0.5, TakenBias: 0.5, Layers: layers},
		{Name: "nochase", LoadFrac: 0.3, StoreFrac: 0.1, BranchFrac: 0.1, MeanDepDist: 6,
			PointerChase: 0, Layers: layers},
		{Name: "chasehit", LoadFrac: 0.5, StoreFrac: 0.1, BranchFrac: 0.05, MeanDepDist: 4,
			PointerChase: 1, Layers: layers},
		{Name: "chasemiss", LoadFrac: 0.01, StoreFrac: 0.05, BranchFrac: 0.1, MeanDepDist: 8,
			PointerChase: 1, Layers: layers},
	}
}

// TestNextUntimedKeepsStream runs every suite app and the hand-built
// apps at two seeds through NextUntimed and through Next in lockstep.
// Every instruction must be Next's with Dep1 and Dep2 zeroed, and after
// n instructions the generators' states and producer indexes must be
// equal; the instructions after that, both through Next, must be equal
// with their dependencies. The chase apps also count that their
// pointer chases both hit and miss the dependency window.
func TestNextUntimedKeepsStream(t *testing.T) {
	const n, after = 50_000, 2_000
	for _, p := range append(Suite(), untimedApps()...) {
		for _, seed := range []uint64{1, 2} {
			untimed := NewGenerator(p, 0, rng.New(seed))
			timed := NewGenerator(p, 0, rng.New(seed))
			var a, b Instr
			hits, misses, lastLoad := 0, 0, 0
			for i := 1; i <= n; i++ {
				untimed.NextUntimed(&a)
				timed.Next(&b)
				if a.Dep1 != 0 || a.Dep2 != 0 {
					t.Fatalf("%s/seed=%d instr %d: untimed dependencies %d, %d", p.Name, seed, i, a.Dep1, a.Dep2)
				}
				want := b
				want.Dep1, want.Dep2 = 0, 0
				if a != want {
					t.Fatalf("%s/seed=%d instr %d: untimed %+v, timed %+v", p.Name, seed, i, a, b)
				}
				if b.Class == Load {
					if lastLoad > 0 && i-lastLoad < depWindow {
						if int(b.Dep1) == i-lastLoad {
							hits++
						}
					} else if lastLoad > 0 {
						misses++
					}
					lastLoad = i
				}
			}
			if !reflect.DeepEqual(untimed.State(), timed.State()) {
				t.Fatalf("%s/seed=%d: states differ after %d instructions", p.Name, seed, n)
			}
			if untimed.lastLoad != timed.lastLoad || untimed.lastProducer != timed.lastProducer {
				t.Fatalf("%s/seed=%d: producer indexes differ after %d instructions", p.Name, seed, n)
			}
			for i := range after {
				untimed.Next(&a)
				timed.Next(&b)
				if a != b {
					t.Fatalf("%s/seed=%d timed instr %d after the untimed run: %+v, want %+v", p.Name, seed, i, a, b)
				}
			}
			if p.Name == "chasehit" && hits == 0 {
				t.Fatalf("chasehit/seed=%d: no pointer chase hit the window", seed)
			}
			if p.Name == "chasemiss" && misses == 0 {
				t.Fatalf("chasemiss/seed=%d: every pointer chase hit the window", seed)
			}
		}
	}
}
