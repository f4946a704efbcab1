package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
)

// profiledPackages are the modules share.* folds CPU samples into; the
// runtime gets its own share and everything else lands in share.other.
var profiledPackages = []string{"workload", "rng", "cpu", "bpred", "hierarchy", "cache", "tlb",
	"llc", "core", "dram", "sim", "telemetry", "serve"}

type profile struct {
	f    *os.File
	path string
}

// startProfile starts a CPU profile of the untraced ops that follow.
func startProfile(e *env) (*profile, error) {
	path := filepath.Join(e.outDir, fmt.Sprintf("cpu-%s-seed%d.pprof", e.workload, e.seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profile{f: f, path: path}, nil
}

// stop ends the profile and folds `go tool pprof -top` by package into
// the share.* metrics: each module's flat CPU time over the total. This
// separates the generator's time from the core's, which wrappers around
// Core.Step cannot do from outside.
func (p *profile) stop(m metrics) error {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return err
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-unit=ms", p.path)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(p.path))
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	flat, err := foldTop(string(out))
	if err != nil {
		return err
	}
	var total float64
	for _, v := range flat {
		total += v
	}
	if total == 0 {
		fmt.Printf("warning: CPU profile %s holds no samples; share.* read 0\n", p.path)
	}
	for _, pkg := range append(profiledPackages, "runtime", "other") {
		m["share."+pkg] = ratio(flat[pkg], total)
	}
	return nil
}

// foldTop sums the flat column of `go tool pprof -top -unit=ms` output by
// the module each function belongs to.
func foldTop(out string) (map[string]float64, error) {
	flat := make(map[string]float64)
	rows := false
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 5 && fields[0] == "flat" {
			rows = true
			continue
		}
		if !rows || len(fields) < 6 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(fields[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", line, err)
		}
		flat[moduleOf(fields[5])] += v
	}
	if !rows {
		return nil, fmt.Errorf("no rows in pprof output:\n%s", out)
	}
	return flat, nil
}

// moduleOf maps a symbol such as "nucasim/internal/cpu.(*Core).issue" to
// its module name.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "nucasim/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		for _, p := range profiledPackages {
			if p == pkg {
				return p
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}
