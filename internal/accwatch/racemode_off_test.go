//go:build !race

package accwatch

const raceEnabled = false
