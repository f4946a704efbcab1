package sim

import (
	"fmt"

	"nucasim/internal/memaddr"
)

// Validate checks that the configuration (after defaults) describes a
// machine the constructors can build, returning a descriptive error
// instead of the panic NewMachine would otherwise hit deep inside a
// geometry or scheme constructor. RunContext validates automatically;
// CLIs should call this up front so a bad flag combination fails with a
// message instead of a stack trace.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Cores < 1 {
		return fmt.Errorf("sim: Cores = %d, need at least 1", c.Cores)
	}
	d, ok := c.Scheme.def()
	if !ok {
		return fmt.Errorf("sim: unknown scheme %q (choose from %v)", c.Scheme, Schemes())
	}
	if c.Cores < d.minCores {
		return fmt.Errorf("sim: the %s scheme needs at least %d cores, got %d", c.Scheme, d.minCores, c.Cores)
	}
	if c.L3BytesPerCore <= 0 {
		return fmt.Errorf("sim: L3BytesPerCore = %d, must be positive", c.L3BytesPerCore)
	}
	// The power-of-two set-count requirement surfaces here, not as a
	// panic in NewMachine.
	if err := checkGeometry(d.arrayBytes(c), d.ways); err != nil {
		return fmt.Errorf("sim: scheme %s with L3BytesPerCore = %d: %w", c.Scheme, c.L3BytesPerCore, err)
	}
	if c.RepartitionPeriod < 0 {
		return fmt.Errorf("sim: RepartitionPeriod = %d, must be non-negative", c.RepartitionPeriod)
	}
	if c.ShadowSampleShift > 20 {
		return fmt.Errorf("sim: ShadowSampleShift = %d leaves no monitored sets", c.ShadowSampleShift)
	}
	if c.CheckpointPath != "" && c.ReplayVerify {
		return fmt.Errorf("sim: CheckpointPath is incompatible with ReplayVerify (the verifier's trace-fed state cannot be checkpointed)")
	}
	if err := c.CPU.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if c.CheckpointEvery > 0 && c.CheckpointPath == "" {
		return fmt.Errorf("sim: CheckpointEvery = %d without a CheckpointPath", c.CheckpointEvery)
	}
	return nil
}

// checkGeometry replicates memaddr.NewGeometry's requirements as errors.
func checkGeometry(sizeBytes, ways int) error {
	if sizeBytes <= 0 || sizeBytes%(ways*memaddr.BlockSize) != 0 {
		return fmt.Errorf("cache size %d is not divisible by ways*block = %d", sizeBytes, ways*memaddr.BlockSize)
	}
	sets := sizeBytes / (ways * memaddr.BlockSize)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache size %d yields %d sets per %d-way cache, not a power of two", sizeBytes, sets, ways)
	}
	return nil
}
