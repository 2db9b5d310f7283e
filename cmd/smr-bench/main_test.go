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
	if os.Getenv("SMR_BENCH_RUN_MAIN") == "1" {
		os.Args = append([]string{"smr-bench"}, os.Args[1:]...)
		main()
		return
	}
	os.Exit(m.Run())
}

// runCLI runs smr-bench with args and returns its exit status.
func runCLI(t *testing.T, args ...string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SMR_BENCH_RUN_MAIN=1")
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &exit):
		return exit.ExitCode()
	}
	t.Fatalf("smr-bench %v: %v", args, err)
	return 0
}

// TestProfilesComplete: -cpuprofile and -memprofile write complete
// profiles — gzip streams that read to their end — whether the run
// passes (exit 0) or its check misses the deadline (exit 1).
func TestProfilesComplete(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		args []string
		code int
	}{
		{"passing run", []string{"-commands", "400", "-shards", "1"}, 0},
		{"deadline passed", []string{"-commands", "2000", "-shards", "2", "-timeout", "1ns"}, 1},
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
