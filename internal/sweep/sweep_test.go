package sweep

import (
	"bytes"
	"cmp"
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"nucasim/internal/sim"
	"nucasim/internal/telemetry"
)

// smallBase keeps test sweeps fast: a 2-core adaptive run sized so the
// measurement window still crosses several repartition epochs.
func smallBase() Base {
	return Base{
		Apps:               []string{"ammp", "gzip"},
		Seed:               7,
		WarmupInstructions: 60_000,
		WarmupCycles:       10_000,
		MeasureCycles:      30_000,
		RepartitionPeriod:  400,
	}
}

func TestExpandGrid(t *testing.T) {
	spec := Spec{
		Base: smallBase(),
		Axes: Axes{
			Scheme:        []string{"private", "shared", "adaptive"},
			MeasureCycles: []uint64{20_000, 40_000},
		},
	}
	points, err := Expand(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("expanded %d points, want 6", len(points))
	}
	// Deterministic order with MeasureCycles innermost: members of one
	// warmup group are adjacent.
	wantLabels := []string{
		"private mc20000", "private mc40000",
		"shared mc20000", "shared mc40000",
		"adaptive mc20000", "adaptive mc40000",
	}
	for i, p := range points {
		if p.Label != wantLabels[i] {
			t.Errorf("point %d label %q, want %q", i, p.Label, wantLabels[i])
		}
		if p.Index != i {
			t.Errorf("point %d carries index %d", i, p.Index)
		}
		if p.SpecHash == "" || p.WarmupHash == "" {
			t.Errorf("point %q missing hashes", p.Label)
		}
	}
	// Expansion must agree with direct hashing of the same config.
	wantHash, err := sim.SpecHash(points[4].Cfg, points[4].Mix)
	if err != nil {
		t.Fatal(err)
	}
	if points[4].SpecHash != wantHash {
		t.Error("point spec hash disagrees with sim.SpecHash")
	}
	// A single-point sweep (no axes) is legal.
	solo, err := Expand(Spec{Base: smallBase()}, 0)
	if err != nil || len(solo) != 1 {
		t.Fatalf("single-point sweep: %d points, err %v", len(solo), err)
	}
	if solo[0].Label != "base" {
		t.Errorf("single-point label %q, want base", solo[0].Label)
	}
}

// malformedSpec is one spec Expand must reject with a *SpecError whose
// message contains want; FuzzExpand seeds from the same table.
type malformedSpec struct {
	name string
	spec Spec
	max  int
	want string
}

func malformedSpecs() []malformedSpec {
	// Six axes of 2^11 values: 2^66 points, which wraps an int product
	// to 0.
	const n = 1 << 11
	huge := Axes{
		Mix: make([][]string, n), Scheme: make([]string, n), Seed: make([]uint64, n),
		L3BytesPerCore: make([]int, n), RepartitionPeriod: make([]int, n), MeasureCycles: make([]uint64, n),
	}
	return []malformedSpec{
		{"empty mix axis", Spec{Base: smallBase(), Axes: Axes{Mix: [][]string{}}}, 0, "axis \"mix\" is empty"},
		{"empty seed axis", Spec{Base: smallBase(), Axes: Axes{Seed: []uint64{}}}, 0, "axis \"seed\" is empty"},
		{"no apps anywhere", Spec{}, 0, "at least 2 apps"},
		{"unknown app", Spec{Base: Base{Apps: []string{"ammp", "nosuchapp"}}}, 0, "unknown application"},
		{"duplicate axis value", Spec{Base: smallBase(), Axes: Axes{Seed: []uint64{1, 1}}}, 0, "duplicate point"},
		{"duplicate mix", Spec{Base: smallBase(), Axes: Axes{Mix: [][]string{{"ammp", "gzip"}, {"ammp", "gzip"}}}}, 0, "duplicate point"},
		{"over cap", Spec{Base: smallBase(), Axes: Axes{Seed: []uint64{1, 2, 3, 4}}}, 3, "grid has 4 points, cap is 3"},
		{"bad geometry", Spec{Base: Base{Apps: []string{"ammp", "gzip"}, L3BytesPerCore: 100_000}}, 0, "not divisible"},
		{"unknown scheme", Spec{Base: smallBase(), Axes: Axes{Scheme: []string{"l4-victim"}}}, 0, "unknown scheme"},
		{"overflowing grid", Spec{Base: smallBase(), Axes: huge}, 0, "points, cap is 1024"},
	}
}

func TestExpandRejectsMalformedSpecs(t *testing.T) {
	for _, tc := range malformedSpecs() {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Expand(tc.spec, tc.max)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Expand() err = %v, want error containing %q", err, tc.want)
			}
			var specErr *SpecError
			if !asSpecError(err, &specErr) {
				t.Fatalf("Expand() err = %T, want *SpecError", err)
			}
		})
	}
}

func asSpecError(err error, target **SpecError) bool {
	se, ok := err.(*SpecError)
	if ok {
		*target = se
	}
	return ok
}

// TestBuildMapsEveryField pins Build as the one mapping from a request
// to a sim.Config: a non-zero value in any Base field but Apps must set
// the Config field of the same name, and only that field. A knob added
// to Base but not to Build fails here.
func TestBuildMapsEveryField(t *testing.T) {
	// Probe values where Validate rejects the per-kind default below.
	probes := map[string]any{
		"Scheme":            "shared",
		"L3BytesPerCore":    1 << 19,
		"ShadowSampleShift": uint(4),
	}
	base := Base{Apps: []string{"ammp", "gzip"}}
	ref, _, err := base.Build()
	if err != nil {
		t.Fatal(err)
	}
	refV := reflect.ValueOf(ref)
	cfgT, baseT := refV.Type(), reflect.TypeOf(base)
	for i := range baseT.NumField() {
		b := base
		f := reflect.ValueOf(&b).Elem().Field(i)
		name := baseT.Field(i).Name
		if name == "Apps" {
			continue
		}
		if v, ok := probes[name]; ok {
			f.Set(reflect.ValueOf(v))
		} else {
			switch f.Kind() {
			case reflect.Bool:
				f.SetBool(true)
			case reflect.Int:
				f.SetInt(3)
			case reflect.Uint, reflect.Uint64:
				f.SetUint(3)
			default:
				t.Fatalf("Base.%s: no probe value for kind %s", name, f.Kind())
			}
		}
		cfg, _, err := b.Build()
		if err != nil {
			t.Fatalf("Base.%s = %v: %v", name, f, err)
		}
		if _, ok := cfgT.FieldByName(name); !ok {
			t.Errorf("Base.%s has no sim.Config field of the same name", name)
		}
		got := reflect.ValueOf(cfg)
		for j := range cfgT.NumField() {
			cf := cfgT.Field(j)
			if cf.Name == name {
				if !cf.Type.ConvertibleTo(f.Type()) || got.Field(j).Convert(f.Type()).Interface() != f.Interface() {
					t.Errorf("Base.%s = %v built Config.%s = %v", name, f, name, got.Field(j))
				}
			} else if !reflect.DeepEqual(got.Field(j).Interface(), refV.Field(j).Interface()) {
				t.Errorf("Base.%s = %v also changed Config.%s: %v -> %v", name, f, cf.Name, refV.Field(j), got.Field(j))
			}
		}
	}
}

func TestPlanGroups(t *testing.T) {
	spec := Spec{
		Base: smallBase(),
		Axes: Axes{
			Scheme:        []string{"shared", "adaptive"},
			Seed:          []uint64{1, 2},
			MeasureCycles: []uint64{20_000, 40_000, 60_000},
		},
	}
	points, err := Expand(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	groups := Plan(points)
	// 2 schemes × 2 seeds = 4 warmup groups; MeasureCycles never splits.
	if len(groups) != 4 {
		t.Fatalf("%d groups, want 4", len(groups))
	}
	for _, g := range groups {
		if len(g.Points) != 3 {
			t.Errorf("group %.12s has %d members, want 3", g.WarmupHash, len(g.Points))
		}
		for _, pi := range g.Points {
			if points[pi].WarmupHash != g.WarmupHash {
				t.Errorf("point %d in group %.12s has hash %.12s", pi, g.WarmupHash, points[pi].WarmupHash)
			}
		}
	}
	// Membership covers every point exactly once.
	seen := make(map[int]bool)
	for _, g := range groups {
		for _, pi := range g.Points {
			if seen[pi] {
				t.Errorf("point %d planned twice", pi)
			}
			seen[pi] = true
		}
	}
	if len(seen) != len(points) {
		t.Errorf("planned %d of %d points", len(seen), len(points))
	}
}

// forkCase is one RunLocalForkEquivalence grid: its windows in axis
// order, whether the invariant checker is armed, and whether Attach
// gives the group a TraceWriter, with or without FullTrace.
type forkCase struct {
	name       string
	windows    []uint64
	invariants bool
	traced     bool
	fullTrace  bool
}

// TestRunLocalForkEquivalence is the sweep-level fork-equivalence test:
// a grid whose points share one warmup group runs as one run, the cold
// run of its longest point, under every scheme, whatever order the
// MeasureCycles axis lists its windows in and with the invariant checker
// armed. Every Result must equal its point's cold run. A traced group
// ("traced"; "one traced" under the invariant checker; "last traced"
// with FullTrace) must write the cold traced run's trace of its longest
// point, byte for byte, and every member's cold trace under the same
// label must be a byte prefix of it.
func TestRunLocalForkEquivalence(t *testing.T) {
	for _, c := range []forkCase{
		{name: "ascending", windows: []uint64{20_000, 40_000, 60_000}},
		{name: "descending", windows: []uint64{60_000, 40_000, 20_000}, invariants: true},
		{name: "traced", windows: []uint64{60_000, 20_000, 40_000}, traced: true},
		{name: "one traced", windows: []uint64{60_000, 20_000, 40_000}, invariants: true, traced: true},
		{name: "last traced", windows: []uint64{20_000, 40_000, 60_000}, traced: true, fullTrace: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, s := range sim.Schemes() {
				t.Run(string(s), func(t *testing.T) { testRunLocalFork(t, schemeBase(s), c) })
			}
		})
	}
}

// schemeBase is smallBase under scheme s. Coop runs at 4 cores
// (art/mcf/ammp/swim) with 16 KB of L3 per core, where its neighbour
// choice matters and it spills often.
func schemeBase(s sim.Scheme) Base {
	b := smallBase()
	b.Scheme = string(s)
	if s == sim.SchemeCoop {
		b.Apps = []string{"art", "mcf", "ammp", "swim"}
		b.L3BytesPerCore = 16 << 10
	}
	return b
}

// testRunLocalFork runs c's grid over base as one group and checks it
// against the cold run of every point.
func testRunLocalFork(t *testing.T, base Base, c forkCase) {
	ctx := context.Background()
	points, err := Expand(Spec{Base: base, Axes: Axes{MeasureCycles: c.windows}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	byWindow := slices.Clone(points)
	slices.SortFunc(byWindow, func(a, b Point) int { return cmp.Compare(a.Cfg.MeasureCycles, b.Cfg.MeasureCycles) })
	longest := byWindow[len(byWindow)-1]
	// tel is the telemetry of the group run and of every cold run: the
	// longest point's label, and w as the trace writer of a traced case.
	tel := func(w *bytes.Buffer) *telemetry.Config {
		tc := &telemetry.Config{Run: longest.Label, FullTrace: c.fullTrace}
		if c.traced {
			tc.TraceWriter = w
		}
		return tc
	}
	var trace bytes.Buffer
	var attached, order []string
	got, st, err := RunLocal(ctx, points, LocalOptions{
		CheckInvariants: c.invariants,
		Attach: func(p Point) *telemetry.Config {
			attached = append(attached, p.Label)
			return tel(&trace)
		},
		OnPoint: func(p Point, _ sim.Result) { order = append(order, p.Label) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := (LocalStats{WarmupsRun: 1, Forked: 3}); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	if !slices.Equal(attached, []string{longest.Label}) {
		t.Errorf("Attach called with %v, want the longest point alone: %s", attached, longest.Label)
	}
	var want []string
	for _, p := range byWindow {
		want = append(want, p.Label)
	}
	if !slices.Equal(order, want) {
		t.Errorf("OnPoint order %v, want window order %v", order, want)
	}
	norm := func(r sim.Result) sim.Result {
		r.Throughput = telemetry.Throughput{}
		return r
	}
	for _, p := range byWindow {
		cfg := p.Cfg
		cfg.CheckInvariants = c.invariants
		var ref bytes.Buffer
		cfg.Telemetry = tel(&ref)
		r, err := sim.RunContext(ctx, cfg, p.Mix)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(norm(got[p.Index]), norm(r)) {
			t.Errorf("point %q: forked result diverged from cold run", p.Label)
		}
		if !c.traced {
			continue
		}
		if p.Label != longest.Label {
			if !bytes.HasPrefix(trace.Bytes(), ref.Bytes()) {
				t.Errorf("point %q: its cold trace (%d bytes) is not a prefix of the group's (%d bytes)",
					p.Label, ref.Len(), trace.Len())
			}
			continue
		}
		// Only the adaptive scheme emits sharing-engine events.
		empty := ref.Len() == 0 && base.Scheme == string(sim.SchemeAdaptive)
		if empty || !bytes.Equal(trace.Bytes(), ref.Bytes()) {
			t.Errorf("group trace (%d bytes) is not the cold trace of %q (%d bytes)",
				trace.Len(), p.Label, ref.Len())
		}
	}
}

// TestRunLocalColdSchemes pins RunLocal's schedule on two plans: two
// groups of one, which run cold, and a scheme × MeasureCycles grid with
// a one-point group between its groups. Attach is called once per
// group, with its longest point, in plan order; OnPoint fires groups in
// plan order and each group's points in window order; and every Result
// equals its point's cold run, in expansion order.
func TestRunLocalColdSchemes(t *testing.T) {
	expand := func(spec Spec) []Point {
		points, err := Expand(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		return points
	}
	schemes := func(s ...string) Spec {
		return Spec{Base: smallBase(), Axes: Axes{Scheme: s}}
	}
	grid := schemes("private", "adaptive")
	grid.Axes.MeasureCycles = []uint64{40_000, 20_000}
	mixed := expand(grid)
	solo := smallBase()
	solo.Scheme = "shared"
	mixed = slices.Insert(mixed, 2, expand(Spec{Base: solo})...)
	for i := range mixed {
		mixed[i].Index = i
	}
	for _, c := range []struct {
		name            string
		points          []Point
		attached, order []string
		stats           LocalStats
	}{
		{
			name:     "groups of one",
			points:   expand(schemes("private", "shared")),
			attached: []string{"private", "shared"},
			order:    []string{"private", "shared"},
			stats:    LocalStats{WarmupsRun: 2, Cold: 2},
		},
		{
			name:     "mixed",
			points:   mixed,
			attached: []string{"private mc40000", "base", "adaptive mc40000"},
			order:    []string{"private mc20000", "private mc40000", "base", "adaptive mc20000", "adaptive mc40000"},
			stats:    LocalStats{WarmupsRun: 3, Forked: 4, Cold: 1},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx := context.Background()
			var attached, order []string
			res, st, err := RunLocal(ctx, c.points, LocalOptions{
				Attach: func(p Point) *telemetry.Config {
					attached = append(attached, p.Label)
					return &telemetry.Config{Run: p.Label}
				},
				OnPoint: func(p Point, _ sim.Result) { order = append(order, p.Label) },
			})
			if err != nil {
				t.Fatal(err)
			}
			if st != c.stats {
				t.Errorf("stats = %+v, want %+v", st, c.stats)
			}
			if !slices.Equal(attached, c.attached) {
				t.Errorf("Attach called with %v, want %v", attached, c.attached)
			}
			if !slices.Equal(order, c.order) {
				t.Errorf("OnPoint order %v, want %v", order, c.order)
			}
			for i, p := range c.points {
				cfg := p.Cfg
				cfg.Telemetry = &telemetry.Config{Run: p.Label}
				ref, err := sim.RunContext(ctx, cfg, p.Mix)
				if err != nil {
					t.Fatal(err)
				}
				res[i].Throughput, ref.Throughput = telemetry.Throughput{}, telemetry.Throughput{}
				if !reflect.DeepEqual(res[i], ref) {
					t.Errorf("point %q: result diverged from its cold run", p.Label)
				}
			}
		})
	}
}

// TestRunLocalAttachNilRunsBare: a group whose Attach returns nil runs
// with no telemetry. Its Results carry no epochs, counters, histograms
// or set stats, and everything else equals the default run's.
func TestRunLocalAttachNilRunsBare(t *testing.T) {
	points, err := Expand(Spec{Base: smallBase(), Axes: Axes{
		Scheme:        []string{"private", "adaptive"},
		MeasureCycles: []uint64{20_000, 40_000},
	}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	def, _, err := RunLocal(ctx, points, LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bare, _, err := RunLocal(ctx, points, LocalOptions{
		Attach: func(Point) *telemetry.Config { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		b, d := bare[i], def[i]
		if b.Epochs != nil || b.Counters != nil || b.Histograms != nil || b.SetStats != nil {
			t.Errorf("point %q: bare run recorded telemetry", p.Label)
		}
		if p.Cfg.Scheme == sim.SchemeAdaptive && (d.Epochs == nil || d.SetStats == nil) {
			t.Errorf("point %q: default run recorded no epochs or set stats", p.Label)
		}
		d.Epochs, d.Counters, d.Histograms, d.SetStats = nil, nil, nil, nil
		b.Throughput, d.Throughput = telemetry.Throughput{}, telemetry.Throughput{}
		if !reflect.DeepEqual(b, d) {
			t.Errorf("point %q: bare run diverged from the default run (IPC %v vs %v)",
				p.Label, b.PerCoreIPC, d.PerCoreIPC)
		}
	}
}

// TestRunLocalCancellation pins that a canceled context aborts the
// sweep with ErrInterrupted instead of grinding through the grid.
func TestRunLocalCancellation(t *testing.T) {
	spec := Spec{
		Base: smallBase(),
		Axes: Axes{MeasureCycles: []uint64{20_000, 40_000}},
	}
	points, err := Expand(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := RunLocal(ctx, points, LocalOptions{}); err == nil ||
		!strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("canceled sweep returned %v, want an interruption error", err)
	}
}

func TestAggregateAndID(t *testing.T) {
	spec := Spec{
		Base: smallBase(),
		Axes: Axes{MeasureCycles: []uint64{20_000, 40_000}},
	}
	points, err := Expand(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := RunLocal(context.Background(), points, LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tbl := Aggregate("my sweep", points, res)
	if tbl.NumRows() != 2 || tbl.Title != "my sweep" {
		t.Fatalf("table has %d rows, title %q", tbl.NumRows(), tbl.Title)
	}
	label, vals := tbl.Row(0)
	if label != points[0].Label || len(vals) != len(TableColumns) {
		t.Errorf("row 0 = %q/%d cols, want %q/%d", label, len(vals), points[0].Label, len(TableColumns))
	}
	if vals[0] <= 0 {
		t.Errorf("harmonic IPC %v, want > 0", vals[0])
	}

	id1 := ID("my sweep", points)
	if id2 := ID("my sweep", points); id2 != id1 {
		t.Error("sweep ID not deterministic")
	}
	if ID("other name", points) == id1 {
		t.Error("sweep ID ignores the name")
	}
	if ID("my sweep", points[:1]) == id1 {
		t.Error("sweep ID ignores the point set")
	}

	// Canonical round trip preserves the spec.
	data, err := Canonical(spec)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, spec) {
		t.Errorf("canonical round trip changed the spec:\n%+v\n%+v", back, spec)
	}
	// ParseSpec is strict: one JSON value, known fields, nothing after it.
	for _, bad := range []string{
		"{",
		string(data) + " garbage",
		string(data) + "{}",
		`{"name":"x","colour":1}`,
	} {
		if _, err := ParseSpec([]byte(bad)); err == nil {
			t.Errorf("invalid spec %q parsed without error", bad)
		}
	}
	if _, err := ParseSpec(append(data, '\n')); err != nil {
		t.Errorf("trailing newline rejected: %v", err)
	}
}
