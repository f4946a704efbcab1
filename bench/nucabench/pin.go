package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// pinnedSeed is the seed whose outputs expected.json pins.
const pinnedSeed = 1

// expected is bench/expected.json: for each workload, the SHA-256 of
// serve.EncodeResult of every output, by op key — the op seed for the
// simulator workloads (one digest per sweep point), "hitNN" for the
// serve workload's cached specs. Fresh serve jobs are not pinned; each is
// recomputed directly after the run and compared byte for byte.
type expected struct {
	Note      string                         `json:"note"`
	Seed      uint64                         `json:"seed"`
	Workloads map[string]map[string][]string `json:"workloads"`
}

func expectedPath(benchDir string) string { return filepath.Join(benchDir, "expected.json") }

func readExpected(benchDir string) (expected, error) {
	var exp expected
	data, err := os.ReadFile(expectedPath(benchDir))
	if err != nil {
		return exp, fmt.Errorf("reading pinned digests (regenerate with -pin): %w", err)
	}
	if err := json.Unmarshal(data, &exp); err != nil {
		return exp, fmt.Errorf("%s: %w", expectedPath(benchDir), err)
	}
	if exp.Seed != pinnedSeed {
		return exp, fmt.Errorf("%s pins seed %d, want %d", expectedPath(benchDir), exp.Seed, pinnedSeed)
	}
	return exp, nil
}

// pinAll recomputes every pinned output at the pinned seed and rewrites
// expected.json. Only a change that deliberately alters simulated
// results (and says so) should ever need it.
func pinAll(benchDir string) error {
	exp := expected{
		Note:      "SHA-256 of serve.EncodeResult per output at seed 1; regenerate only with nucabench -pin",
		Seed:      pinnedSeed,
		Workloads: make(map[string]map[string][]string),
	}
	for _, name := range workloads {
		e := &env{workload: name, seed: pinnedSeed, seen: make(map[string][]string)}
		if name == "serve" {
			for j := 0; j < hitSpecs; j++ {
				b, err := directRun(hitSpec(pinnedSeed, j))
				if err != nil {
					return err
				}
				e.seen[fmt.Sprintf("hit%02d", j)] = []string{digest(b)}
			}
		} else {
			b, err := newBench(name, false)
			if err != nil {
				return err
			}
			sb := b.(*simBench)
			if err := sb.setup(e); err != nil {
				return err
			}
			for k := uint64(1); k < seedsPerRun; k++ {
				rs, err := sb.op(pinnedSeed + k)
				if err != nil {
					return err
				}
				if err := e.verify(seedKey(pinnedSeed+k), digests(rs)); err != nil {
					return err
				}
			}
		}
		exp.Workloads[name] = e.seen
		fmt.Printf("pinned %d outputs of %s\n", len(e.seen), name)
	}
	data, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedPath(benchDir), append(data, '\n'), 0o644)
}
