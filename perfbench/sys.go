package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processCPU is the user plus system CPU time of the whole process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS resets the kernel's RSS high-water mark (VmHWM) to the
// current RSS. Where the kernel does not allow it, VmHWM stays the
// process's peak so far, which still bounds the job's.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //gk:allow errcheck: best effort, see above
}

// peakRSS is VmHWM in bytes, or 0 when /proc does not report it.
func peakRSS() int64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(kb), " kB"), 10, 64)
			if err != nil {
				return 0
			}
			return n << 10
		}
	}
	return 0
}
