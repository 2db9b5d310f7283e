package main

import (
	"testing"

	"repro/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, "consensus-sim", main) }

// TestProfilesComplete: -cpuprofile and -memprofile write complete
// profiles whether the run checks clean (exit 0) or fails to build its
// system (exit 2).
func TestProfilesComplete(t *testing.T) {
	clitest.Profiles(t, 0)
	clitest.Profiles(t, 2, "-servers", "0")
}
