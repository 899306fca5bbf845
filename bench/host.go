package main

import (
	"runtime"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostFacts travel with every result so that a run on another box, or next
// to a noisy neighbour, is recognisable instead of being read as a
// regression.
type hostFacts struct {
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Go         string    `json:"go"`
	Kernel     string    `json:"kernel"`
	SpinMs     []float64 `json:"spin_ms"` // the fixed spin, timed before and after the workload
}

func newHostFacts() hostFacts {
	return hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     kernelRelease(),
	}
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	b := make([]byte, 0, len(u.Release))
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

var spinSink uint64

// spinMs times a fixed piece of arithmetic (one dependent multiply-add chain,
// no memory traffic): the same number on every run of a quiet box, a larger
// one when a neighbour or the hypervisor has the CPU. It runs long enough
// (~0.15 s) to see a throttled guest, whose steal comes in bursts.
func spinMs() float64 {
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < 100_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	spinSink = x
	return float64(time.Since(t0)) / 1e6
}
