//go:build race

package pimsim

// raceEnabled shortens the exhaustive conversion sweeps under the race
// detector, which slows every call by an order of magnitude, and skips
// the allocation pins, whose counts the detector does not keep.
const raceEnabled = true
