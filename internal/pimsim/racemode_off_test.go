//go:build !race

package pimsim

const raceEnabled = false
