package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Set-up is repeated setupRepeats times per run and its median reported, so
// that setup_s is a steady figure; each set-up ends with warmupPasses passes
// that fill the engine and plane pools before anything is timed.
const (
	setupRepeats = 5
	warmupPasses = 3
)

// passSample is one timed pass.
type passSample struct {
	wall     time.Duration
	ops      []time.Duration // per op, in case order
	units    int64
	failed   int
	joinErrs int
}

// runPass issues every op of the pass once, in order. tr may be nil.
func runPass(p pass, tr *tracer, onFail func(op, why string)) passSample {
	s := passSample{ops: make([]time.Duration, p.ops())}
	start := time.Now()
	root := tr.beginPass()
	for i := range s.ops {
		t0 := time.Now()
		sp := tr.beginOp(p.opName(i))
		r := p.op(i, tr)
		tr.endOp(sp)
		s.ops[i] = time.Since(t0)
		s.units += r.units
		s.joinErrs += r.joinErrs
		if r.failed != "" {
			s.failed++
			if onFail != nil {
				onFail(p.opName(i), r.failed)
			}
		}
	}
	tr.end(root)
	s.wall = time.Since(start)
	return s
}

// endToEnd is what one untraced run of a workload measures.
type endToEnd struct {
	setupS        float64
	throughput    float64
	passP50Ms     float64
	passP90Ms     float64
	p90Beyond     int
	passP99Ms     float64 // information only: too few samples to gate
	allocsPerPass float64
	peakRSSMB     float64 // 90th percentile of the resident-set samples
	hwmRSSMB      float64 // VmHWM, information only: a maximum of one sample
	passes        int
	unitsPerPass  float64
	attempted     int
	failed        int
	joinErrs      int // wire-cluster: joins that exited with an error
	firstFailure  string
	opNames       []string
	opP50Ms       []float64 // per case, information only
}

func (e endToEnd) failedShare() float64 { return ratio(float64(e.failed), float64(e.attempted)) }

// setUp builds the workload's pass from the seed and warms it up: everything
// a run pays before its first timed op.
func setUp(w workload, seed int64, note func(op, why string)) (pass, error) {
	p, err := w.setup(seed)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	for i := 0; i < warmupPasses; i++ {
		runPass(p, nil, note)
	}
	return p, nil
}

// measure runs the workload untraced: repeated set-up, then whole passes
// until `seconds` of timed work have elapsed. The first set-up is timed from
// process start.
func measure(w workload, seed int64, seconds float64, processStart time.Time) (endToEnd, error) {
	var out endToEnd
	note := func(op, why string) {
		if out.firstFailure == "" {
			out.firstFailure = op + ": " + why
		}
	}
	var p pass
	setups := make([]float64, setupRepeats)
	for i := range setups {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		var err error
		if p, err = setUp(w, seed, note); err != nil {
			return out, err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	out.setupS = median(setups)
	out.firstFailure = "" // warm-up failures resurface in the timed part if real

	var walls, rates []float64
	opWalls := make([][]float64, p.ops())
	var units int64
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	start := time.Now()
	var rss []float64
	lastRSS := start
	for time.Since(start).Seconds() < seconds {
		s := runPass(p, nil, note)
		if time.Since(lastRSS) >= rssSampleEvery {
			lastRSS = time.Now()
			rss = append(rss, procStatusMB("VmRSS:"))
		}
		walls = append(walls, float64(s.wall.Nanoseconds())/1e6)
		rates = append(rates, float64(s.units)/s.wall.Seconds())
		units += s.units
		out.failed += s.failed
		out.joinErrs += s.joinErrs
		for i, d := range s.ops {
			opWalls[i] = append(opWalls[i], float64(d.Nanoseconds())/1e6)
		}
	}
	runtime.ReadMemStats(&ms)

	out.passes = len(walls)
	out.unitsPerPass = float64(units) / float64(out.passes)
	out.attempted = out.passes * p.ops()
	out.throughput = median(rates)
	out.passP50Ms = median(walls)
	out.passP90Ms, out.p90Beyond = p90(walls)
	out.passP99Ms = quantile(sorted(walls), 0.99)
	out.allocsPerPass = float64(ms.Mallocs-mallocs) / float64(out.passes)
	out.peakRSSMB = quantile(sorted(rss), 0.9)
	out.hwmRSSMB = procStatusMB("VmHWM:")
	for i, w := range opWalls {
		out.opNames = append(out.opNames, p.opName(i))
		out.opP50Ms = append(out.opP50Ms, median(w))
	}
	return out, nil
}

// rssSampleEvery spaces the resident-set samples taken between passes.
// peak_rss_mb is their 90th percentile, not the process's high-water mark:
// the high-water mark is one sample of the GC's worst overshoot and measured
// ±20 % between identical runs here, the percentile ±3 %.
const rssSampleEvery = 50 * time.Millisecond

// procStatusMB reads one kB-valued field of /proc/self/status, in MiB; 0
// where /proc is not available.
func procStatusMB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
