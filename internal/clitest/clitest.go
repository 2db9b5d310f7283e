// Package clitest runs a command's main inside its own test binary, so
// a command's tests see its output and exit status without building it
// first. Only tests import it: no command links package testing.
//
// A command's main_test.go hands TestMain to Main; its tests then call
// Run with the command's arguments:
//
//	func TestMain(m *testing.M) { clitest.Main(m, "slin-check", main) }
//
//	out, code := clitest.Run(t, "-adt", "register", path)
package clitest

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// runMain is set in the environment of a test binary that Run
// re-executes as the command.
const runMain = "CLITEST_RUN_MAIN"

// name is the command's name, set by Main.
var name string

// Main runs the command's main with the test binary's arguments when Run
// re-executed the binary, and the tests otherwise.
func Main(m *testing.M, command string, main func()) {
	name = command
	if os.Getenv(runMain) == "1" {
		os.Args = append([]string{command}, os.Args[1:]...)
		main()
		return
	}
	os.Exit(m.Run())
}

// Run runs the command with args and returns its standard output and
// exit status.
func Run(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMain+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), exit.ExitCode()
	}
	t.Fatalf("%s %v: %v (stderr %q)", name, args, err, stderr.String())
	return "", 0
}

// Profiles runs the command with -cpuprofile and -memprofile files in a
// fresh directory ahead of args, and fails t unless it exits with code
// and both files are complete profiles: gzip streams that read to their
// end.
func Profiles(t *testing.T, code int, args ...string) {
	t.Helper()
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pb.gz"), filepath.Join(dir, "mem.pb.gz")
	if out, got := Run(t, append([]string{"-cpuprofile", cpu, "-memprofile", mem}, args...)...); got != code {
		t.Fatalf("%s %v: exit %d, want %d (%q)", name, args, got, code, out)
	}
	for _, p := range []string{cpu, mem} {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(f)
		if err == nil {
			_, err = io.Copy(io.Discard, zr)
		}
		f.Close()
		if err != nil {
			t.Errorf("%s %v: %s is not a complete profile: %v", name, args, filepath.Base(p), err)
		}
	}
}
