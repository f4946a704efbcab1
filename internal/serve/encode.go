package serve

import (
	"bytes"
	"encoding/json"
	"fmt"

	"nucasim/internal/sim"
	"nucasim/internal/telemetry"
)

// EncodeResult renders a sim.Result as the normalized JSON stored in
// (and served from) the content-addressed cache. The simulator is
// deterministic in the canonical spec, so after zeroing the one
// nondeterministic field — wall-clock throughput, an observation of the
// host rather than of the simulated machine — the bytes are a pure
// function of the spec: a cache hit is byte-for-byte identical to what
// a fresh run would have produced. The regression suite proves this by diffing a cached
// artifact against a direct sim.Run.
func EncodeResult(r sim.Result) ([]byte, error) {
	r.Throughput.Wall = 0
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeResult parses result.json bytes back into a sim.Result — the
// read side of EncodeResult, used when a sweep aggregates its points'
// committed results from the cache.
func DecodeResult(data []byte) (sim.Result, error) {
	var r sim.Result
	if err := json.Unmarshal(data, &r); err != nil {
		return sim.Result{}, fmt.Errorf("serve: unparseable result artifact: %w", err)
	}
	return r, nil
}

// encodeEpochCSV renders the run's epoch time series in the same CSV
// format as nucasim -metrics-out, so cached artifacts are drop-in
// inputs for the existing plotting and diffing tools. Deterministic for
// the same reason as EncodeResult (epochs carry no wall-clock data).
func encodeEpochCSV(r sim.Result) []byte {
	var buf bytes.Buffer
	// WriteCSV only errors when the writer does; bytes.Buffer cannot.
	_ = telemetry.WriteEpochCSV(&buf, r.Epochs)
	return buf.Bytes()
}
