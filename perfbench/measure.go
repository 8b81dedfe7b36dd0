package main

import (
	"bufio"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Set-up is timed in setupBatches batches of identical set-ups, after
// setupWarmups untimed ones that fault in the memory and files every
// later set-up reuses. A batch's sample is its mean CPU time per set-up
// (user+sys of this process and its reaped children), and setup_s is
// the median sample. CPU time is the work a set-up costs: on a shared
// host, time stolen by neighbours stretches wall time but not CPU time.
// Averaging within a batch keeps a collection or a scheduler wake-up
// that lands in one short set-up from deciding the median; a fixed count
// keeps a slow host from changing how warm the measured set-ups are.
const (
	setupWarmups = 2
	setupBatches = 11
)

// usage is what one timed window consumed.
type usage struct {
	wall       time.Duration
	selfCPU    time.Duration // RUSAGE_SELF user+sys
	childCPU   time.Duration // RUSAGE_CHILDREN user+sys (reaped fleet workers)
	allocBytes uint64
	allocs     uint64
	gcCycles   uint64
	gcCPU      float64 // seconds of GC CPU (runtime/metrics estimate)
	totalCPU   float64 // seconds of all Go CPU classes (same source)
}

type meter struct {
	start  time.Time
	self   syscall.Rusage
	child  syscall.Rusage
	mem    runtime.MemStats
	sample []rtmetrics.Sample
}

var rtNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []rtmetrics.Sample {
	s := make([]rtmetrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	return s
}

// startMeter collects garbage left by set-up, so every window starts
// from the same heap, then snapshots the counters.
func startMeter() *meter {
	runtime.GC()
	m := &meter{}
	runtime.ReadMemStats(&m.mem)
	m.sample = readRuntime()
	syscall.Getrusage(syscall.RUSAGE_SELF, &m.self)
	syscall.Getrusage(syscall.RUSAGE_CHILDREN, &m.child)
	m.start = time.Now()
	return m
}

func (m *meter) stop() usage {
	wall := time.Since(m.start)
	var self, child syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	syscall.Getrusage(syscall.RUSAGE_CHILDREN, &child)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	rt := readRuntime()
	return usage{
		wall:       wall,
		selfCPU:    cpuTime(self) - cpuTime(m.self),
		childCPU:   cpuTime(child) - cpuTime(m.child),
		allocBytes: mem.TotalAlloc - m.mem.TotalAlloc,
		allocs:     mem.Mallocs - m.mem.Mallocs,
		gcCycles:   rt[0].Value.Uint64() - m.sample[0].Value.Uint64(),
		gcCPU:      rt[1].Value.Float64() - m.sample[1].Value.Float64(),
		totalCPU:   rt[2].Value.Float64() - m.sample[2].Value.Float64(),
	}
}

func cpuTime(r syscall.Rusage) time.Duration {
	return time.Duration(r.Utime.Nano() + r.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// timeSetup runs fn setupWarmups times untimed, then setupBatches
// batches of batch timed runs, and returns each batch's mean CPU time
// per run. Garbage is collected, untimed, before every batch. between,
// when not nil, runs untimed before every run but the first, to tear
// down what the previous one built.
func timeSetup(batch int, fn func() error, between func()) ([]time.Duration, error) {
	var out []time.Duration
	first := true
	run := func() (time.Duration, error) {
		if !first && between != nil {
			between()
		}
		first = false
		c0 := processCPU()
		err := fn()
		return processCPU() - c0, err
	}
	for range setupWarmups {
		if _, err := run(); err != nil {
			return nil, err
		}
	}
	for range setupBatches {
		runtime.GC()
		var sum time.Duration
		for range batch {
			d, err := run()
			if err != nil {
				return nil, err
			}
			sum += d
		}
		out = append(out, sum/time.Duration(batch))
	}
	return out, nil
}

// processCPU is the user+sys CPU of this process and its reaped
// children.
func processCPU() time.Duration {
	var self, child syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	syscall.Getrusage(syscall.RUSAGE_CHILDREN, &child)
	return cpuTime(self) + cpuTime(child)
}

// quantile returns the q-quantile of ds by linear interpolation between
// closest ranks; ds need not be sorted.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// e2e is one end-to-end measurement: set-up samples, then the ops of
// one timed window.
type e2e struct {
	setup []time.Duration
	ops   int
	// latencies holds the latency of every unit of waiting in the
	// window: a trial (in-process streams), a request cycle (service) or
	// a dispatched campaign (fleet).
	latencies []time.Duration
	use       usage
	// rate, when set, is ops_per_s summed over the in-process streams
	// (see collect); otherwise ops_per_s is ops over the window's wall
	// time.
	rate float64
}

// values computes the end-to-end metrics in BENCHMARK.json order.
func (e e2e) values() []namedValue {
	ops := float64(e.ops)
	cpu := e.use.selfCPU + e.use.childCPU
	rate := e.rate
	if rate == 0 {
		rate = ops / e.use.wall.Seconds()
	}
	return []namedValue{
		{"setup_s", "s", quantile(e.setup, 0.5).Seconds()},
		{"ops_per_s", "1/s", rate},
		{"lat_p50_ms", "ms", ms(quantile(e.latencies, 0.5))},
		{"lat_p90_ms", "ms", ms(quantile(e.latencies, 0.9))},
		{"cpu_ms_per_op", "ms", ms(cpu) / ops},
		{"alloc_bytes_per_op", "B", float64(e.use.allocBytes) / ops},
		{"allocs_per_op", "count", float64(e.use.allocs) / ops},
	}
}

type namedValue struct {
	name, unit string
	v          float64
}

func (r *report) addE2E(e e2e) {
	for _, nv := range e.values() {
		r.set(nv.name, nv.unit, nv.v)
	}
}

// addRuntime reports the Go runtime's share of a window.
func (r *report) addRuntime(u usage, ops int) {
	r.set("runtime.gc_cycles_per_op", "count", float64(u.gcCycles)/float64(ops))
	frac := 0.0
	if u.totalCPU > 0 {
		frac = u.gcCPU / u.totalCPU
	}
	r.set("runtime.gc_cpu_fraction", "ratio", frac)
	r.set("runtime.peak_rss_mb", "MB", peakRSSMB())
}

// addOverhead reports tracing overhead: the traced window's value of
// each end-to-end metric minus the untraced window's, as a percentage
// of the untraced value.
func (r *report) addOverhead(untraced, traced e2e) {
	u, t := untraced.values(), traced.values()
	for i := range u {
		pct := 0.0
		if u[i].v != 0 {
			pct = (t[i].v - u[i].v) / u[i].v * 100
		}
		r.set("overhead."+u[i].name+"_pct", "%", pct)
	}
}
