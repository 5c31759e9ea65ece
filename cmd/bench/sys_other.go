//go:build !linux

package main

import (
	"runtime"
	"time"
)

// sleepPrecise falls back to the runtime's timers, which can oversleep by
// up to a millisecond; open-loop latencies are then less precise.
func sleepPrecise(d time.Duration) { time.Sleep(d) }

// peakRSSMB approximates the peak resident set size by the memory the Go
// runtime has obtained from the system.
func peakRSSMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
