//go:build !race

package fixed

const raceEnabled = false
