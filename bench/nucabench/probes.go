package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"time"

	"nucasim/internal/rng"
	"nucasim/internal/serve"
	"nucasim/internal/sim"
	"nucasim/internal/telemetry"
	"nucasim/internal/workload"
)

// allocSample reads the process's cumulative heap allocation without the
// stop-the-world pause runtime.ReadMemStats takes.
var allocSample = []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func allocBytes() uint64 {
	rtmetrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// timeIt returns the median wall time of reps calls of f.
func timeIt(reps int, f func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(start)))
	}
	return time.Duration(median(ds)), nil
}

// probeLayers times, in isolation and untraced, the layers every workload
// passes through with the workload's own configuration: the instruction
// generator, machine assembly, functional warmup and timed cycles, the
// clock pair the tracer pays per call, and the serve store committing,
// reading and recovering this workload's result bytes.
func probeLayers(e *env, cfg sim.Config, mix []workload.AppParams, sample sim.Result, m metrics) error {
	m["trace.clock_pair_ns"] = clockPairNs()

	n := 200_000
	if e.smoke {
		n = 20_000
	}
	var ins workload.Instr
	d, _ := timeIt(3, func() error {
		for i, p := range mix {
			g := workload.NewGenerator(p, i, rng.New(cfg.Seed).Fork(uint64(i)+1))
			for k := 0; k < n; k++ {
				g.Next(&ins)
			}
		}
		return nil
	})
	m["workload.next_ns"] = float64(d) / float64(n*len(mix))

	d, _ = timeIt(3, func() error { sim.NewMachine(cfg, mix); return nil })
	m["sim.new_machine_ms"] = float64(d) / 1e6
	mach := sim.NewMachine(cfg, mix)
	warm := mach.Cfg.WarmupInstructions
	start := time.Now()
	mach.WarmFunctional(warm)
	m["sim.warm_ns_per_instr"] = float64(time.Since(start)) / float64(warm*uint64(mach.Cfg.Cores))
	cycles := min(mach.Cfg.WarmupCycles+mach.Cfg.MeasureCycles, 20_000)
	start = time.Now()
	mach.Run(cycles)
	m["sim.cycle_ns"] = float64(time.Since(start)) / float64(cycles)

	return probeStore(e, cfg, mix, sample, m)
}

// probeStore commits copies of sample under distinct spec hashes to a
// temporary store, reads them back, and times a server recovering the
// populated directory.
func probeStore(e *env, cfg sim.Config, mix []workload.AppParams, sample sim.Result, m metrics) error {
	entries := 16
	if e.smoke {
		entries = 4
	}
	dir := filepath.Join(e.outDir, fmt.Sprintf("probe-%s-%d", e.workload, os.Getpid()))
	defer os.RemoveAll(dir)
	st, err := serve.NewStore(dir)
	if err != nil {
		return err
	}
	result, err := serve.EncodeResult(sample)
	if err != nil {
		return err
	}
	var csv bytes.Buffer
	if err := telemetry.WriteEpochCSV(&csv, sample.Epochs); err != nil {
		return err
	}
	var hashes []string
	for k := 0; k < entries; k++ {
		c := cfg
		c.Seed += 1_000_000 + uint64(k)
		spec, err := sim.CanonicalSpec(c, mix)
		if err != nil {
			return err
		}
		hash, err := sim.SpecHash(c, mix)
		if err != nil {
			return err
		}
		if err := st.PutSpec(hash, spec); err != nil {
			return err
		}
		hashes = append(hashes, hash)
	}
	var puts, reads []float64
	for _, hash := range hashes {
		start := time.Now()
		if err := st.PutResult(hash, result, csv.Bytes()); err != nil {
			return err
		}
		puts = append(puts, float64(time.Since(start))/1e6)
	}
	for _, hash := range hashes {
		start := time.Now()
		got, err := st.ReadResult(hash)
		if err != nil {
			return err
		}
		reads = append(reads, float64(time.Since(start))/1e6)
		if !bytes.Equal(got, result) {
			return fmt.Errorf("store probe: read back different bytes")
		}
	}
	m["serve.store_put_ms"] = median(puts)
	m["serve.store_read_ms"] = median(reads)
	start := time.Now()
	s, err := serve.New(serve.Options{StateDir: dir, Workers: 1})
	if err != nil {
		return err
	}
	m["serve.recover_ms"] = float64(time.Since(start)) / 1e6
	return s.Shutdown(context.Background())
}
