// Package sweep turns "evaluate this grid" into concrete simulator
// work: a Spec names a base configuration plus axes (mix, scheme, seed,
// L3 capacity, repartition period, measurement window), Expand unrolls
// the cartesian product into canonical job specs — validated, deduped,
// capped — and Plan groups the points that share warmup-relevant
// configuration so warmup runs once per group and every member's
// measurement window forks from it. Locally a group is one run, the
// cold run of its longest point: sim.NewWarmedMachine, then one
// MeasureWindows call that harvests every member's window on the way.
// On the server it happens from one checkpoint (sim.WarmupCheckpoint /
// sim.ResumeFromCheckpoint). Aggregate folds
// the per-point results into one stats.Table, the downloadable artifact
// of a whole Fig. 7-style study. The package is the shared engine of
// cmd/experiments (local execution of figures and spec files) and
// nucaserve's POST /v1/sweeps (scheduled on the serve worker pool).
package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"nucasim/internal/sim"
	"nucasim/internal/workload"
)

// DefaultMaxPoints caps how many points one sweep may expand to when
// the caller does not set its own limit (nucaserve's -max-sweep-points).
const DefaultMaxPoints = 1024

// Base is the one run request: the semantic subset of sim.Config plus
// the application mix by name. It is the body of POST /v1/jobs
// (serve.JobRequest is an alias), a sweep's anchor configuration (every
// axis overrides one Base field) and what cmd/nucasim fills from its
// flags. Zero fields take the simulator's Table 1 defaults.
type Base struct {
	Scheme             string   `json:"scheme,omitempty"` // default "adaptive"
	Apps               []string `json:"apps,omitempty"`   // one per core, ≥2
	Seed               uint64   `json:"seed,omitempty"`
	WarmupInstructions uint64   `json:"warmup_instructions,omitempty"`
	WarmupCycles       uint64   `json:"warmup_cycles,omitempty"`
	MeasureCycles      uint64   `json:"measure_cycles,omitempty"`
	L3BytesPerCore     int      `json:"l3_bytes_per_core,omitempty"`
	Scaled             bool     `json:"scaled,omitempty"`
	ShadowSampleShift  uint     `json:"shadow_sample_shift,omitempty"`
	RepartitionPeriod  int      `json:"repartition_period,omitempty"`
	DisableProtection  bool     `json:"disable_protection,omitempty"`
	DisableAdaptation  bool     `json:"disable_adaptation,omitempty"`
}

// Build resolves the request into a validated simulator configuration
// and application mix; it is the only place a request becomes a run.
// Errors are user errors (HTTP 400 material).
func (b Base) Build() (sim.Config, []workload.AppParams, error) {
	if len(b.Apps) < 2 {
		return sim.Config{}, nil, fmt.Errorf("need at least 2 apps (one per core), got %d", len(b.Apps))
	}
	mix := make([]workload.AppParams, 0, len(b.Apps))
	for _, name := range b.Apps {
		p, ok := workload.ByName(name)
		if !ok {
			return sim.Config{}, nil, fmt.Errorf("unknown application %q", name)
		}
		mix = append(mix, p)
	}
	scheme := sim.Scheme(b.Scheme)
	if scheme == "" {
		scheme = sim.SchemeAdaptive
	}
	cfg := sim.Config{
		Cores:              len(mix),
		Scheme:             scheme,
		Seed:               b.Seed,
		WarmupInstructions: b.WarmupInstructions,
		WarmupCycles:       b.WarmupCycles,
		MeasureCycles:      b.MeasureCycles,
		L3BytesPerCore:     b.L3BytesPerCore,
		Scaled:             b.Scaled,
		ShadowSampleShift:  b.ShadowSampleShift,
		RepartitionPeriod:  b.RepartitionPeriod,
		DisableProtection:  b.DisableProtection,
		DisableAdaptation:  b.DisableAdaptation,
	}
	if err := cfg.Validate(); err != nil {
		return sim.Config{}, nil, err
	}
	return cfg, mix, nil
}

// Axes are the swept dimensions. A nil axis means "use the Base value";
// a present-but-empty axis is a spec error (an empty grid is always a
// mistake, never a no-op). The L3 ways axis of the paper's Figure 3 is
// deliberately absent: set associativity is a geometry constant of the
// flat-arena engine, so ways studies stay the client-side analytic probe
// of Figure 3 (cmd/experiments fig3).
type Axes struct {
	Mix               [][]string `json:"mix,omitempty"`
	Scheme            []string   `json:"scheme,omitempty"`
	Seed              []uint64   `json:"seed,omitempty"`
	L3BytesPerCore    []int      `json:"l3_bytes_per_core,omitempty"`
	RepartitionPeriod []int      `json:"repartition_period,omitempty"`
	MeasureCycles     []uint64   `json:"measure_cycles,omitempty"`
}

// Spec is the wire shape of POST /v1/sweeps and of the spec files
// cmd/experiments runs (testdata/sweeps).
type Spec struct {
	// Name titles the aggregated table artifact (optional).
	Name string `json:"name,omitempty"`
	Base Base   `json:"base"`
	Axes Axes   `json:"axes"`
}

// Point is one expanded grid point: a validated simulator configuration
// with its content addresses. Points come out of Expand in
// deterministic order with MeasureCycles innermost, so the members of a
// warmup group (equal WarmupHash) are always adjacent.
type Point struct {
	// Index is the point's position in expansion order — rows of the
	// aggregated table keep this order.
	Index int
	Cfg   sim.Config
	Mix   []workload.AppParams
	Apps  []string
	// Label names the point by its swept coordinates only (axes with a
	// single value add noise, not identity); unique within the sweep.
	Label string
	// SpecHash is sim.SpecHash(Cfg, Mix): the job ID the point dedupes
	// onto in the serve result cache.
	SpecHash string
	// WarmupHash is sim.WarmupHash(Cfg, Mix): points sharing it reach a
	// bit-identical machine state after warmup and may fork one warmup
	// checkpoint.
	WarmupHash string
}

// SpecError is a malformed sweep spec — HTTP 400 material, with a
// message naming exactly what is wrong.
type SpecError struct{ Msg string }

func (e *SpecError) Error() string { return e.Msg }

func specErrorf(format string, args ...any) error {
	return &SpecError{Msg: fmt.Sprintf(format, args...)}
}

// axis unifies the per-dimension expansion: each carries the candidate
// values (one zero value when the axis is unset, meaning "Base rules"),
// whether the axis was explicitly given, and a label renderer.
type axis[T any] struct {
	name   string
	values []T
	set    bool
	label  func(T) string
}

func newAxis[T any](name string, vals []T, zero T, label func(T) string) (axis[T], error) {
	a := axis[T]{name: name, values: vals, set: vals != nil, label: label}
	if a.set && len(vals) == 0 {
		return a, specErrorf("sweep: axis %q is empty", name)
	}
	if !a.set {
		a.values = []T{zero}
	}
	return a, nil
}

// varying reports whether the axis contributes to point identity.
func (a axis[T]) varying() bool { return a.set && len(a.values) > 1 }

// Expand validates the spec and unrolls its cartesian product into
// points, in deterministic order (mix outermost, then scheme, seed, L3
// capacity, repartition period, and MeasureCycles innermost). It
// rejects empty axes, duplicate points (two coordinates expanding to
// the same canonical spec), invalid configurations, and grids larger
// than maxPoints (0 = DefaultMaxPoints); every rejection is a
// *SpecError naming the offending coordinate.
func Expand(spec Spec, maxPoints int) ([]Point, error) {
	if maxPoints <= 0 {
		maxPoints = DefaultMaxPoints
	}
	mixes, err := newAxis("mix", spec.Axes.Mix, spec.Base.Apps, func(m []string) string {
		return strings.Join(m, "+")
	})
	if err != nil {
		return nil, err
	}
	schemes, err := newAxis("scheme", spec.Axes.Scheme, spec.Base.Scheme, func(s string) string { return s })
	if err != nil {
		return nil, err
	}
	seeds, err := newAxis("seed", spec.Axes.Seed, spec.Base.Seed, func(s uint64) string {
		return fmt.Sprintf("seed%d", s)
	})
	if err != nil {
		return nil, err
	}
	caps, err := newAxis("l3_bytes_per_core", spec.Axes.L3BytesPerCore, spec.Base.L3BytesPerCore, func(b int) string {
		if b%(1<<10) == 0 {
			return fmt.Sprintf("%dKB", b>>10)
		}
		return fmt.Sprintf("%dB", b)
	})
	if err != nil {
		return nil, err
	}
	periods, err := newAxis("repartition_period", spec.Axes.RepartitionPeriod, spec.Base.RepartitionPeriod, func(p int) string {
		return fmt.Sprintf("p%d", p)
	})
	if err != nil {
		return nil, err
	}
	windows, err := newAxis("measure_cycles", spec.Axes.MeasureCycles, spec.Base.MeasureCycles, func(m uint64) string {
		return fmt.Sprintf("mc%d", m)
	})
	if err != nil {
		return nil, err
	}

	// Counted in float64: six axes cut from a 1 MiB body can overflow
	// an int product and slip past the cap.
	grid := float64(len(mixes.values)) * float64(len(schemes.values)) * float64(len(seeds.values)) *
		float64(len(caps.values)) * float64(len(periods.values)) * float64(len(windows.values))
	if grid > float64(maxPoints) {
		return nil, specErrorf("sweep: grid has %.0f points, cap is %d", grid, maxPoints)
	}

	points := make([]Point, 0, int(grid))
	seen := make(map[string]string, int(grid)) // spec hash → label of first owner
	for _, mix := range mixes.values {
		for _, scheme := range schemes.values {
			for _, seed := range seeds.values {
				for _, capacity := range caps.values {
					for _, period := range periods.values {
						for _, window := range windows.values {
							var labelParts []string
							add := func(on bool, s string) {
								if on {
									labelParts = append(labelParts, s)
								}
							}
							add(mixes.varying(), mixes.label(mix))
							add(schemes.varying(), schemes.label(scheme))
							add(seeds.varying(), seeds.label(seed))
							add(caps.varying(), caps.label(capacity))
							add(periods.varying(), periods.label(period))
							add(windows.varying(), windows.label(window))
							label := strings.Join(labelParts, " ")
							if label == "" {
								label = "base"
							}

							b := spec.Base
							b.Apps, b.Scheme, b.Seed = mix, scheme, seed
							b.L3BytesPerCore, b.RepartitionPeriod, b.MeasureCycles = capacity, period, window
							cfg, params, err := b.Build()
							if err != nil {
								return nil, specErrorf("sweep: point %q: %v", label, err)
							}
							specHash, err := sim.SpecHash(cfg, params)
							if err != nil {
								return nil, specErrorf("sweep: point %q: %v", label, err)
							}
							if prev, dup := seen[specHash]; dup {
								return nil, specErrorf("sweep: duplicate point: %q expands to the same spec as %q", label, prev)
							}
							seen[specHash] = label
							warmHash, err := sim.WarmupHash(cfg, params)
							if err != nil {
								return nil, specErrorf("sweep: point %q: %v", label, err)
							}
							points = append(points, Point{
								Index:      len(points),
								Cfg:        cfg,
								Mix:        params,
								Apps:       append([]string(nil), mix...),
								Label:      label,
								SpecHash:   specHash,
								WarmupHash: warmHash,
							})
						}
					}
				}
			}
		}
	}
	return points, nil
}

// ID is the sweep's content address: the SHA-256 of its name and the
// ordered list of point spec hashes, under a "sweep:" domain prefix so
// sweep IDs can never collide with job IDs. Two submissions that expand
// to the same points in the same order (and title the table the same
// way) are the same sweep and share one store entry.
func ID(name string, points []Point) string {
	h := sha256.New()
	h.Write([]byte("sweep:" + name))
	for _, p := range points {
		h.Write([]byte("\n" + p.SpecHash))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Canonical renders the spec as normalized JSON — what nucaserve
// persists under the sweep's store entry so an interrupted sweep can be
// re-expanded and finished by the next process.
func Canonical(spec Spec) ([]byte, error) {
	return json.Marshal(spec)
}

// ParseSpec is the strict sweep spec decoder, for Canonical bytes and
// for spec files: exactly one JSON value, no unknown fields, nothing
// after it.
func ParseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("sweep: invalid sweep spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, errors.New("sweep: invalid sweep spec: unexpected data after the JSON value")
	}
	return s, nil
}
