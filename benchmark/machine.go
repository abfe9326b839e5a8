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

// procStart approximates process start: package variables initialise
// before main, right after the Go runtime is up.
var procStart = time.Now()

// machineInfo states where the numbers were taken. Every result file
// carries it, so a figure is never read without its box.
type machineInfo struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Kernel     string `json:"kernel"`
	Link       string `json:"link"`
}

func machine() machineInfo {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return machineInfo{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Kernel:     kernel,
		Link:       "loopback, not a real link",
	}
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
// It falls back to getrusage's maxrss where /proc is absent.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// settleMemory ends set-up for the memory metric: garbage of the
// set-up repetitions is collected and returned to the system, and the
// kernel's resident-set high-water mark is reset (clear_refs 5), so
// peak_rss_mb is the peak of the measured phases from a compacted heap.
// Set-up's own peak — a burst of short-lived garbage whose height
// depends on when the concurrent collector happens to run, 14 to 25 MiB
// for the same work on lsm_rtl — is returned for the diagnostic
// e2e.setup_peak_rss_mb. Where the reset is not permitted the mark
// simply keeps covering the whole process.
func settleMemory() (setupPeakMiB float64) {
	setupPeakMiB = peakRSSMiB()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	return setupPeakMiB
}

// meter brackets one measured phase: wall time, process CPU and heap
// allocations. ReadMemStats stops the world briefly, so both reads sit
// outside the window they bracket.
type meter struct {
	t0      time.Time
	cpu0    time.Duration
	mallocs uint64
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{cpu0: cpuTime(), mallocs: ms.Mallocs, t0: time.Now()}
}

type metered struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
}

func (m meter) stop() metered {
	wall := time.Since(m.t0)
	cpu := cpuTime() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return metered{wall: wall, cpu: cpu, mallocs: ms.Mallocs - m.mallocs}
}
