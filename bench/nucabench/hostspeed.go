package main

import (
	"sync"
	"time"
)

// The benchmark's host is shared: neighbours slow every core by up to
// 70% for minutes at a time, and no amount of work per run averages that
// away. Every run therefore times a fixed calibration kernel
// between its ops, and the end-to-end times are reported at reference
// host speed: raw time × refKernelMs / median(kernel time). Over a
// 14-minute trace of table1 ops on the reference host, dividing by any of
// three kernels tried (arithmetic, pointer chase, cache model) halved the
// spread of 20-second medians; the cache model (random read-modify-writes
// into a 1 MB table, with a data-dependent branch) is kept as the closest
// in kind to the simulator. It lives in the benchmark, so no change to
// the simulator moves it; the report prints the raw times and the factor
// beside the scaled ones.
const (
	kernelIters = 500_000
	// refKernelMs is the kernel's median time on the reference host
	// (2-vCPU Intel Xeon, Go 1.24, GOMAXPROCS=2).
	refKernelMs = 4.0
)

var kernelTable = make([]uint64, 1<<17)

// kernel runs the calibration kernel once.
func kernel() {
	x := uint64(12345)
	t := kernelTable
	for i := 0; i < kernelIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (1<<17 - 1)
		if t[j]&1 == 0 {
			t[j] += x
		} else {
			t[j] ^= x >> 3
		}
	}
}

// hostSpeed collects kernel timings; it is safe for concurrent use.
type hostSpeed struct {
	mu sync.Mutex
	ms []float64
}

func (h *hostSpeed) sample() {
	if h == nil {
		return
	}
	start := time.Now()
	kernel()
	d := float64(time.Since(start)) / 1e6
	h.mu.Lock()
	h.ms = append(h.ms, d)
	h.mu.Unlock()
}

// factor is how much slower than the reference host this run's host ran:
// divide times by it (multiply rates) to report them at reference speed.
func (h *hostSpeed) factor() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return median(h.ms) / refKernelMs
}
