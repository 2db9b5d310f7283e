// Package profile is the -cpuprofile/-memprofile plumbing the CLIs
// share: what `go test` offers under the same flag names, for a main.
package profile

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile written to the file cpu and returns the
// function that finishes it and writes an allocation profile — the
// sampled allocation sites since the process started, after a final GC
// — to the file mem. An empty name skips that profile. Profiles are
// complete only once stop has returned, so a main that leaves through
// os.Exit calls it first.
func Start(cpu, mem string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpu != "" {
		if cpuFile, err = os.Create(cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close() // nothing was written; the start error is the one to report
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if mem == "" {
			return nil
		}
		f, err := os.Create(mem)
		if err != nil {
			return err
		}
		runtime.GC() // so the profile covers every allocation up to here
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close() // the write error is the one to report
			return err
		}
		return f.Close()
	}, nil
}
