package main

import (
	"testing"

	"repro/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, "smr-bench", main) }

// TestProfilesComplete: -cpuprofile and -memprofile write complete
// profiles whether the run passes (exit 0) or its check misses the
// deadline (exit 1).
func TestProfilesComplete(t *testing.T) {
	clitest.Profiles(t, 0, "-commands", "400", "-shards", "1")
	clitest.Profiles(t, 1, "-commands", "2000", "-shards", "2", "-timeout", "1ns")
}
