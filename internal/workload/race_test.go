//go:build race

package workload

// raceEnabled selects the short sizes of the differential tests under the
// race detector: each stream runs on one goroutine and shares nothing, so
// the detector finds nothing more at full size and would only multiply
// their run time.
const raceEnabled = true
