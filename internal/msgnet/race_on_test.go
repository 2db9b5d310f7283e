//go:build race

package msgnet

const raceEnabled = true
