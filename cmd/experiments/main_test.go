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
	if os.Getenv("EXPERIMENTS_RUN_MAIN") == "1" {
		os.Args = append([]string{"experiments"}, os.Args[1:]...)
		main()
		return
	}
	os.Exit(m.Run())
}

// runCLI runs experiments with args and returns its exit status.
func runCLI(t *testing.T, args ...string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EXPERIMENTS_RUN_MAIN=1")
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &exit):
		return exit.ExitCode()
	}
	t.Fatalf("experiments %v: %v", args, err)
	return 0
}

// TestProfilesComplete: -cpuprofile and -memprofile write complete
// profiles — gzip streams that read to their end — whether the run
// passes (exit 0) or an experiment fails (exit 1).
func TestProfilesComplete(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		args []string
		code int
	}{
		{"nothing selected", []string{"-e", "E13"}, 0},
		{"deadline passed", []string{"-e", "E1", "-timeout", "1ns"}, 1},
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
