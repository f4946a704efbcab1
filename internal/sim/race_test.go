//go:build race

package sim

// raceEnabled selects the short sizes of the warmup oracle under the race
// detector: the pipeline's goroutines and handoffs are all exercised at
// the short sizes, and full size would only multiply the run time.
const raceEnabled = true
