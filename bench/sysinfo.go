package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envBlock records where and how a run was taken, so two reports can be
// told apart before their numbers are compared.
type envBlock struct {
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Commit     string  `json:"commit"`
	GOGC       string  `json:"GOGC"`
	GOMEMLIMIT string  `json:"GOMEMLIMIT"`
	GODEBUG    string  `json:"GODEBUG"`
	GOFLAGS    string  `json:"GOFLAGS"`
	LoadBefore float64 `json:"load1_before"`
	LoadAfter  float64 `json:"load1_after"`
}

func readEnv() envBlock {
	e := envBlock{
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     "unknown",
		GOGC:       os.Getenv("GOGC"),
		GOMEMLIMIT: os.Getenv("GOMEMLIMIT"),
		GODEBUG:    os.Getenv("GODEBUG"),
		GOFLAGS:    os.Getenv("GOFLAGS"),
		LoadBefore: loadAvg1(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// procField returns the value of the first "key: value" line of a /proc
// file, or "" when the file or the key is missing.
func procField(path, key string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func cpuModel() string {
	if m := procField("/proc/cpuinfo", "model name"); m != "" {
		return m
	}
	return runtime.GOARCH
}

func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f, _ := strconv.ParseFloat(strings.Fields(string(b))[0], 64)
	return f
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	kb, _ := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	return kb / 1024
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// calibrate times a fixed integer spin loop. Taken before and after the
// measured repetitions, the ratio says whether the box changed speed
// under the run: a noisy run identifies itself.
func calibrate() time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for j := 0; j < 20_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink = x
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// calibSink keeps the spin loop's result live so the compiler keeps the
// loop.
var calibSink uint64
