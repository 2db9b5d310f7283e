//go:build race

package capture

const raceEnabled = true
