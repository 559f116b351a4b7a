package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// environment is what a result must carry so that a noisy run can be
// told apart from a slow change: the machine, the toolchain, the code
// and how much CPU the hypervisor took during the run.
type environment struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	// StealShare is the share of non-idle CPU time the hypervisor
	// stole during the timed phase (/proc/stat), or -1 when unknown.
	StealShare float64 `json:"steal_share"`
}

func newEnvironment(seed uint64) environment {
	return environment{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Seed:       seed,
		StealShare: -1,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the
// build could stamp one (a checkout without git metadata cannot).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	switch {
	case rev == "":
		return "unknown"
	case dirty:
		return rev + "-dirty"
	default:
		return rev
	}
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct {
	busy, steal uint64 // busy counts every non-idle field, steal included
}

// parseProcStat reads the aggregate cpu line: user nice system idle
// iowait irq softirq steal [guest guest_nice]. Guest time is already
// counted in user and nice, so it is not added again.
func parseProcStat(r io.Reader) (cpuTimes, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "cpu" {
			continue
		}
		if len(fields) < 9 {
			return cpuTimes{}, fmt.Errorf("/proc/stat: cpu line has %d fields, want at least 9", len(fields))
		}
		var v [8]uint64
		for i := range v {
			x, err := strconv.ParseUint(fields[i+1], 10, 64)
			if err != nil {
				return cpuTimes{}, fmt.Errorf("/proc/stat: field %d: %w", i+1, err)
			}
			v[i] = x
		}
		user, nice, system, irq, softirq, steal := v[0], v[1], v[2], v[5], v[6], v[7]
		return cpuTimes{busy: user + nice + system + irq + softirq + steal, steal: steal}, nil
	}
	if err := sc.Err(); err != nil {
		return cpuTimes{}, err
	}
	return cpuTimes{}, fmt.Errorf("/proc/stat: no aggregate cpu line")
}

// stealShare is the share of busy time between two readings that was
// stolen; -1 when no busy time passed.
func stealShare(a, b cpuTimes) float64 {
	if b.busy <= a.busy {
		return -1
	}
	return float64(b.steal-a.steal) / float64(b.busy-a.busy)
}

// readCPUTimes samples /proc/stat; ok is false where it is missing.
func readCPUTimes() (cpuTimes, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}, false
	}
	defer f.Close()
	t, err := parseProcStat(f)
	return t, err == nil
}
