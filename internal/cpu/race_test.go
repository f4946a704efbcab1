//go:build race

package cpu

// raceEnabled selects the short sizes of the differential tests under the
// race detector: they run on one goroutine, so the detector finds nothing
// more at full size and would only multiply their run time.
const raceEnabled = true
