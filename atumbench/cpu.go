package main

import (
	"runtime"
	rtmetrics "runtime/metrics"
	"syscall"
)

// cpuMicros returns the process's user+system CPU time in microseconds.
// Wall time for identical work moved ±12% between runs on the two-core probe
// machine; CPU time over fixed work is what cpu_us_per_delivery is built on.
func cpuMicros() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) int64 { return int64(t.Sec)*1e6 + int64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runtimeSnap is a snapshot of the Go runtime's allocation and GC counters.
type runtimeSnap struct {
	mallocs    uint64
	allocBytes uint64
	gcCPUSec   float64 // the runtime's own estimate, refreshed at each GC cycle
}

func snapRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(gc)
	s := runtimeSnap{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc}
	if gc[0].Value.Kind() == rtmetrics.KindFloat64 {
		s.gcCPUSec = gc[0].Value.Float64()
	}
	return s
}

// liveHeap forces two collections (the second frees what the first one's
// sweep and finalizers released) and returns the bytes of live heap objects.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
