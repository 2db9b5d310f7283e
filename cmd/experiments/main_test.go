package main

import (
	"testing"

	"repro/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, "experiments", main) }

// TestProfilesComplete: -cpuprofile and -memprofile write complete
// profiles whether the run passes (exit 0) or an experiment fails
// (exit 1).
func TestProfilesComplete(t *testing.T) {
	clitest.Profiles(t, 0, "-e", "E13") // nothing selected
	clitest.Profiles(t, 1, "-e", "E1", "-timeout", "1ns")
}
