package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"lmas/internal/telemetry"
)

// sample is what one rep reports. The parent fills RSS from the child's
// rusage; Layers is set on traced reps only.
type sample struct {
	Setup   float64            `json:"setup_s"`
	Run     float64            `json:"run_s"`
	CPU     float64            `json:"cpu_s"`
	RSS     float64            `json:"peak_rss_mb"`
	Virtual float64            `json:"virtual_s"`
	Units   float64            `json:"units"`
	Digest  string             `json:"digest"`
	Layers  map[string]float64 `json:"layers,omitempty"`
	Err     string             `json:"error,omitempty"`
}

// meter times one rep: set-up runs from the rep's start to beginRun, the
// measured calls from beginRun to endRun. When traced it also records a span
// with its allocation delta around each public call, heap and GC deltas over
// the measured calls, and a CPU profile of set-up and run.
type meter struct {
	traced bool
	tmp    string // directory for the files a workload writes
	s      *sample

	start, runAt time.Time
	cpuAt        float64
	memAt        runtime.MemStats
	prof         bytes.Buffer
	profiling    bool
}

func newMeter(s *sample, traced bool, tmp string) (*meter, error) {
	m := &meter{traced: traced, tmp: tmp, s: s}
	if traced {
		s.Layers = map[string]float64{}
		if err := pprof.StartCPUProfile(&m.prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		m.profiling = true
	}
	m.start = time.Now()
	return m, nil
}

// span runs fn, timing it as the layer call name when traced.
func (m *meter) span(name string, fn func()) {
	if !m.traced {
		fn()
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := time.Now()
	fn()
	d := time.Since(t)
	runtime.ReadMemStats(&after)
	m.s.Layers[name+"_s"] += d.Seconds()
	m.s.Layers[name+"_alloc_mb"] += float64(after.TotalAlloc-before.TotalAlloc) / 1e6
}

func (m *meter) beginRun() {
	m.s.Setup = time.Since(m.start).Seconds()
	if m.traced {
		runtime.ReadMemStats(&m.memAt)
	}
	m.cpuAt = cpuSeconds()
	m.runAt = time.Now()
}

func (m *meter) endRun() {
	m.s.Run = time.Since(m.runAt).Seconds()
	m.s.CPU = cpuSeconds() - m.cpuAt
	if !m.traced {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.layer("heap.mallocs", float64(ms.Mallocs-m.memAt.Mallocs))
	m.layer("gc.cycles", float64(ms.NumGC-m.memAt.NumGC))
	m.layer("gc.pause_s", float64(ms.PauseTotalNs-m.memAt.PauseTotalNs)/1e9)
	m.stopProfile()
}

func (m *meter) stopProfile() {
	if m.profiling {
		pprof.StopCPUProfile()
		m.profiling = false
	}
}

func (m *meter) layer(name string, v float64) {
	if m.traced {
		m.s.Layers[name] = v
	}
}

// counters copies the scheduler-tier counters out of a RunReport.
func (m *meter) counters(cs []telemetry.CounterReport) {
	for _, c := range cs {
		switch c.Name {
		case "sim.scheduler.wheel_hits", "sim.scheduler.heap_spills", "sim.scheduler.proc_reuses":
			m.layer(c.Name, float64(c.Value))
		}
	}
}

// cpuSeconds is this process's user+system CPU time, all threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runRep runs one rep of w in this process. An error, a panic or a failed
// check in the workload comes back as the sample's Err; a traced rep that
// succeeds adds the CPU profile's buckets and the layer probes.
func runRep(w workload, size int, seed int64, traced bool, tmp string) (s sample) {
	m, err := newMeter(&s, traced, tmp)
	if err != nil {
		s.Err = err.Error()
		return s
	}
	defer func() {
		m.stopProfile()
		if r := recover(); r != nil {
			s.Err = fmt.Sprintf("panic: %v", r)
		}
	}()
	if err := w.run(m, size, seed); err != nil {
		s.Err = err.Error()
		return s
	}
	if !traced {
		return s
	}
	buckets, err := profileBuckets(m.prof.Bytes())
	if err != nil {
		s.Err = err.Error()
		return s
	}
	for k, v := range buckets {
		s.Layers["cpu."+k] = v
	}
	ps, err := probes(seed)
	if err != nil {
		s.Err = err.Error()
		return s
	}
	for k, v := range ps {
		s.Layers[k] = v
	}
	return s
}
