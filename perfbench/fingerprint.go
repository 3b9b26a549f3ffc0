package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// Fingerprint names the machine and toolchain a result was taken on.
// Results are comparable only when their fingerprints are equal.
type Fingerprint struct {
	CPU        string
	NProc      int
	GOMAXPROCS int
	GoVersion  string
	GOOS       string
	GOARCH     string
}

func fingerprint() Fingerprint {
	return Fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// cpuModel reads the processor's model name from the kernel's CPU table,
// or reports "unknown" where there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
