//go:build race

package smr

const raceEnabled = true
