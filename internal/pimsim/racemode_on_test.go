//go:build race

package pimsim

// raceEnabled shortens the exhaustive conversion sweeps under the race
// detector, which slows every call by an order of magnitude.
const raceEnabled = true
