package main

import (
	"testing"

	"repro/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, "lin-hunt", main) }

// TestProfilesComplete: -cpuprofile and -memprofile write complete
// profiles whether the clean structure checks linearizable (exit 0) or
// its check misses the deadline (exit 1).
func TestProfilesComplete(t *testing.T) {
	clitest.Profiles(t, 0, "-structure", "map", "-g", "2", "-ops", "200")
	clitest.Profiles(t, 1, "-structure", "map", "-g", "2", "-ops", "200", "-timeout", "1ns")
}
