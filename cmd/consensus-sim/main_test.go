package main

import (
	"compress/gzip"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed
// by runCLI, so the tests below see its exit status.
func TestMain(m *testing.M) {
	if os.Getenv("CONSENSUS_SIM_RUN_MAIN") == "1" {
		os.Args = append([]string{"consensus-sim"}, os.Args[1:]...)
		main()
		return
	}
	os.Exit(m.Run())
}

// runCLI runs consensus-sim with args and returns its exit status.
func runCLI(t *testing.T, args ...string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CONSENSUS_SIM_RUN_MAIN=1")
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &exit):
		return exit.ExitCode()
	}
	t.Fatalf("consensus-sim %v: %v", args, err)
	return 0
}

// TestProfilesComplete: -cpuprofile and -memprofile write complete
// profiles — gzip streams that read to their end — whether the run
// checks clean (exit 0) or fails to build its system (exit 2).
func TestProfilesComplete(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		args []string
		code int
	}{
		{"holds", nil, 0},
		{"no servers", []string{"-servers", "0"}, 2},
	} {
		cpu, mem := filepath.Join(dir, c.name+"-cpu.pb.gz"), filepath.Join(dir, c.name+"-mem.pb.gz")
		if code := runCLI(t, append([]string{"-cpuprofile", cpu, "-memprofile", mem}, c.args...)...); code != c.code {
			t.Fatalf("%s: exit %d, want %d", c.name, code, c.code)
		}
		for _, p := range []string{cpu, mem} {
			f, err := os.Open(p)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			zr, err := gzip.NewReader(f)
			if err == nil {
				_, err = io.Copy(io.Discard, zr)
			}
			f.Close()
			if err != nil {
				t.Errorf("%s: %s is not a complete profile: %v", c.name, filepath.Base(p), err)
			}
		}
	}
}
