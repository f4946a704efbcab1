package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"nucasim/internal/cpu"
	"nucasim/internal/workload"
)

// canonicalSpec is the normalized, semantics-only shape of one job:
// every field that changes what a run computes, and nothing that only
// changes how it is observed or interrupted. The simulator is
// deterministic in this struct — two runs with equal canonical specs
// produce identical Results (modulo wall-clock throughput) — so its
// serialized form is the content address of a run's artifacts.
//
// Fields are listed explicitly rather than embedding Config: adding an
// observability or hardening knob to Config must not silently change
// every cache key, and adding a semantic knob must be a conscious
// decision to invalidate cached results (bump specVersion if the
// meaning of an existing field ever changes instead).
type canonicalSpec struct {
	Version int `json:"version"`

	Cores              int        `json:"cores"`
	Scheme             Scheme     `json:"scheme"`
	Seed               uint64     `json:"seed"`
	WarmupInstructions uint64     `json:"warmup_instructions"`
	WarmupCycles       uint64     `json:"warmup_cycles"`
	MeasureCycles      uint64     `json:"measure_cycles"`
	L3BytesPerCore     int        `json:"l3_bytes_per_core"`
	Scaled             bool       `json:"scaled"`
	ShadowSampleShift  uint       `json:"shadow_sample_shift"`
	RepartitionPeriod  int        `json:"repartition_period"`
	DisableProtection  bool       `json:"disable_protection"`
	DisableAdaptation  bool       `json:"disable_adaptation"`
	CPU                cpu.Config `json:"cpu"`

	// The complete application models, not just their names: a custom
	// mix that reuses a suite name must not alias the suite entry.
	Mix []workload.AppParams `json:"mix"`
}

// specVersion invalidates every existing cache key when the canonical
// encoding itself changes meaning.
const specVersion = 1

// CanonicalSpec renders the run-defining portion of (cfg, mix) as
// deterministic JSON: defaults are applied first, observability and
// hardening fields (Telemetry, ReplayVerify, CheckInvariants,
// Checkpoint*) are excluded, and field order is fixed by the
// struct. The bytes are stable across processes and machines, which
// makes them suitable for content-addressing cached results.
func CanonicalSpec(cfg Config, mix []workload.AppParams) ([]byte, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(mix) != cfg.Cores {
		return nil, fmt.Errorf("sim: mix has %d apps for %d cores", len(mix), cfg.Cores)
	}
	s := canonicalSpec{
		Version:            specVersion,
		Cores:              cfg.Cores,
		Scheme:             cfg.Scheme,
		Seed:               cfg.Seed,
		WarmupInstructions: cfg.WarmupInstructions,
		WarmupCycles:       cfg.WarmupCycles,
		MeasureCycles:      cfg.MeasureCycles,
		L3BytesPerCore:     cfg.L3BytesPerCore,
		Scaled:             cfg.Scaled,
		ShadowSampleShift:  cfg.ShadowSampleShift,
		RepartitionPeriod:  cfg.RepartitionPeriod,
		DisableProtection:  cfg.DisableProtection,
		DisableAdaptation:  cfg.DisableAdaptation,
		CPU:                cfg.CPU,
		Mix:                mix,
	}
	return json.Marshal(s)
}

// ParseCanonicalSpec decodes bytes produced by CanonicalSpec back into a
// runnable configuration and mix. A job server persists the canonical
// bytes next to each cached result; parsing them back is how work that
// was queued or checkpointed when the process died is reconstructed
// after a restart.
func ParseCanonicalSpec(data []byte) (Config, []workload.AppParams, error) {
	var s canonicalSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return Config{}, nil, fmt.Errorf("sim: corrupt canonical spec: %w", err)
	}
	if s.Version != specVersion {
		return Config{}, nil, fmt.Errorf("sim: canonical spec has version %d, this build reads %d", s.Version, specVersion)
	}
	cfg := Config{
		Cores:              s.Cores,
		Scheme:             s.Scheme,
		Seed:               s.Seed,
		WarmupInstructions: s.WarmupInstructions,
		WarmupCycles:       s.WarmupCycles,
		MeasureCycles:      s.MeasureCycles,
		L3BytesPerCore:     s.L3BytesPerCore,
		Scaled:             s.Scaled,
		ShadowSampleShift:  s.ShadowSampleShift,
		RepartitionPeriod:  s.RepartitionPeriod,
		DisableProtection:  s.DisableProtection,
		DisableAdaptation:  s.DisableAdaptation,
		CPU:                s.CPU,
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, nil, err
	}
	if len(s.Mix) != cfg.withDefaults().Cores {
		return Config{}, nil, fmt.Errorf("sim: canonical spec names %d apps for %d cores", len(s.Mix), cfg.withDefaults().Cores)
	}
	return cfg, s.Mix, nil
}

// SpecHash returns the lowercase hex SHA-256 of CanonicalSpec(cfg, mix):
// the content address under which a run's artifacts are cached. Equal
// hashes mean equal canonical specs, and therefore byte-identical
// deterministic artifacts.
func SpecHash(cfg Config, mix []workload.AppParams) (string, error) {
	spec, err := CanonicalSpec(cfg, mix)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(spec)
	return hex.EncodeToString(sum[:]), nil
}

// WarmupHash returns the lowercase hex SHA-256 of the warmup-relevant
// portion of the canonical spec: the canonical JSON with MeasureCycles
// zeroed, hashed under a "warmup:" domain prefix so the value can never
// collide with a SpecHash. MeasureCycles is the only canonical field
// that plays no part in warmup — everything else (mix, seed, scheme,
// geometry, the adaptive knobs, the CPU model) shapes the machine state
// that exists at the warmup/measure boundary. Two configs with equal
// WarmupHash therefore reach a bit-identical machine state after
// warmup, which is what lets a sweep run warmup once per group and fork
// every member's measurement window from one checkpoint.
func WarmupHash(cfg Config, mix []workload.AppParams) (string, error) {
	spec, err := CanonicalSpec(cfg, mix)
	if err != nil {
		return "", err
	}
	var s canonicalSpec
	if err := json.Unmarshal(spec, &s); err != nil {
		return "", err
	}
	s.MeasureCycles = 0
	warm, err := json.Marshal(s)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(append([]byte("warmup:"), warm...))
	return hex.EncodeToString(sum[:]), nil
}
