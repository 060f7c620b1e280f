package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile reports the q-quantile of xs by linear interpolation between
// closest ranks (the definition numpy and Python's statistics module use
// with the "inclusive" method). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// runtimeSample is a snapshot of the counters the benchmark reports:
// cumulative heap allocation and the Go runtime's CPU time split by class,
// and the process CPU time the kernel accounted.
type runtimeSample struct {
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
	processCPU float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
		processCPU: processCPUSeconds(),
	}
}

// processCPUSeconds is the user plus system CPU time of every thread of
// the process since it started, as the kernel accounts it. Unlike the Go
// runtime's /cpu/classes estimates, which count wall time of running
// threads, it leaves out time the hypervisor gives to other guests when
// the kernel accounts steal time, as virtual machines' kernels do.
func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// rssMB reads the process's resident set size in megabytes from
// /proc/self/statm; 0 where the file is unavailable.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / 1e6
}

// rssSampler samples the resident set size at a fixed interval until
// finish is called.
type rssSampler struct {
	stop chan struct{}
	done chan []float64
}

func sampleRSS(every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		var mb []float64
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				s.done <- mb
				return
			case <-tick.C:
				if v := rssMB(); v > 0 {
					mb = append(mb, v)
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples, in megabytes.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	return <-s.done
}
