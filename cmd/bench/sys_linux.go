//go:build linux

package main

import (
	"syscall"
	"time"
)

// sleepPrecise blocks for d in nanosleep(2). The runtime's timers wake an
// idle program on millisecond boundaries, which would add about half a
// millisecond to every open-loop latency; nanosleep wakes within the
// kernel's timer slack (50µs by default).
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
