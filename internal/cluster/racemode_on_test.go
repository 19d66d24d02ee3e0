//go:build race

package cluster

// raceEnabled skips the allocation pins under the race detector, where
// sync.Pool drops items at random and allocation counts drift.
const raceEnabled = true
