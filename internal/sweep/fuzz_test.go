package sweep

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nucasim/internal/sim"
)

// readmeSpec is the sweep submitted in README's Sweeps section.
const readmeSpec = `{
  "name": "window study",
  "base": {
    "scheme": "adaptive",
    "apps": ["ammp", "swim"],
    "seed": 1,
    "warmup_instructions": 1000000,
    "warmup_cycles": 100000
  },
  "axes": {"measure_cycles": [500000, 1000000, 2000000, 4000000]}
}`

// TestCanonicalREADMESpec pins the persisted form of a sweep spec: a
// restarted server re-expands exactly these bytes.
func TestCanonicalREADMESpec(t *testing.T) {
	spec, err := ParseSpec([]byte(readmeSpec))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Canonical(spec)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"name":"window study","base":{"scheme":"adaptive","apps":["ammp","swim"],"seed":1,"warmup_instructions":1000000,"warmup_cycles":100000},"axes":{"measure_cycles":[500000,1000000,2000000,4000000]}}`
	if string(got) != want {
		t.Errorf("Canonical = %s\nwant        %s", got, want)
	}
}

// TestCommittedSpecsExpand keeps the studies committed under
// testdata/sweeps runnable: each parses strictly and expands to its
// pinned number of points, and every file has a pin.
func TestCommittedSpecsExpand(t *testing.T) {
	want := map[string]int{"capacity": 12, "period": 6, "windows": 3}
	files, err := filepath.Glob("../../testdata/sweeps/*.json")
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ".json")
		n, ok := want[name]
		if !ok {
			t.Errorf("%s: no pinned point count", f)
			continue
		}
		seen++
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		points, err := Expand(spec, 0)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if len(points) != n {
			t.Errorf("%s expands to %d points, want %d", f, len(points), n)
		}
	}
	if seen != len(want) {
		t.Errorf("found %d of the %d pinned specs in testdata/sweeps", seen, len(want))
	}
}

// FuzzExpand throws arbitrary spec bodies at the expander, the code a
// POST /v1/sweeps body reaches after decoding. Invariants: Expand never
// panics, every rejection is a *SpecError, the grid respects the cap,
// and every point's SpecHash is the content address of its own
// configuration and unique within the sweep.
func FuzzExpand(f *testing.F) {
	const maxPoints = 8
	f.Add([]byte(readmeSpec))
	for _, tc := range malformedSpecs() {
		data, err := json.Marshal(tc.spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		points, err := Expand(spec, maxPoints)
		if err != nil {
			var specErr *SpecError
			if !errors.As(err, &specErr) {
				t.Fatalf("Expand error %T is not a *SpecError: %v", err, err)
			}
			return
		}
		if len(points) > maxPoints {
			t.Fatalf("%d points over a cap of %d", len(points), maxPoints)
		}
		seen := make(map[string]bool, len(points))
		for _, p := range points {
			hash, err := sim.SpecHash(p.Cfg, p.Mix)
			if err != nil {
				t.Fatalf("point %q: %v", p.Label, err)
			}
			if p.SpecHash != hash {
				t.Fatalf("point %q: SpecHash %s, its config hashes to %s", p.Label, p.SpecHash, hash)
			}
			if seen[hash] {
				t.Fatalf("point %q: duplicate spec hash %s", p.Label, hash)
			}
			seen[hash] = true
		}
	})
}
