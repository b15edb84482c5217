package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is a point-in-time reading of the process-wide counters the
// end-to-end and runtime metrics are differences of.
type usage struct {
	wall     time.Time
	cpu      time.Duration // user + system CPU of the whole process
	mallocs  uint64
	gcCycles uint64
	gcCPU    float64 // seconds of CPU spent in the GC (runtime/metrics)
	allCPU   float64 // seconds of CPU available to the Go runtime
	host     hostCPU
}

// hostCPU is the machine-wide CPU time in /proc/stat, in clock ticks: all
// of it, and the share a hypervisor gave to other guests (steal). Steal
// explains run-to-run spread on a shared host; it is printed, not gated.
type hostCPU struct{ total, steal uint64 }

func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{} // not Linux: steal is simply not reported
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var h hostCPU
	for i := 1; i < len(f); i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return hostCPU{}
		}
		h.total += v
		if i == 8 {
			h.steal = v
		}
	}
	return h
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(rtSamples)
	u := usage{
		wall:     time.Now(),
		cpu:      processCPU(),
		mallocs:  ms.Mallocs,
		gcCycles: rtSamples[0].Value.Uint64(),
		gcCPU:    rtSamples[1].Value.Float64(),
		allCPU:   rtSamples[2].Value.Float64(),
		host:     readHostCPU(),
	}
	return u
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set (VmHWM), falling back
// to getrusage's ru_maxrss where /proc is unavailable.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
