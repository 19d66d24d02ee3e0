//go:build race

package fixed

// raceEnabled shortens the exhaustive conversion sweeps under the race
// detector, which slows every call by an order of magnitude.
const raceEnabled = true
