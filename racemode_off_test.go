//go:build !race

package transpimlib

const raceEnabled = false
