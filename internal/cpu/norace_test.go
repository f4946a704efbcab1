//go:build !race

package cpu

const raceEnabled = false
