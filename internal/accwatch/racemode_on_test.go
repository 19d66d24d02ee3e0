//go:build race

package accwatch

// raceEnabled skips the allocation pins under the race detector, which
// adds allocations of its own.
const raceEnabled = true
