package main

import (
	"fmt"
	"runtime"
	"time"
)

// workload is one benchmark workload. Its inputs are generated from the
// seed when it is made; each iteration replays them through the public
// entry points, so every iteration must produce the same outputs.
type workload interface {
	nodes() int // receivers or members, the per-node denominator
	inputChecksum() uint64
	callsPerIteration() [numKinds]int
	iterate(r *recorder) error
	release()         // drop the most recent iteration's outputs
	verify() error    // full output checks on the most recent iteration
	checksum() uint64 // fingerprint of the most recent iteration's outputs
	outputs() map[string]float64
}

var workloadNames = []string{"disk_table1", "ball_fig8", "session_drift"}

// config is one run's settings. Zero sizes select the workload defaults.
type config struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	N        int     `json:"n"`
	Rounds   int     `json:"rounds,omitempty"`
	Churn    int     `json:"churn,omitempty"`
	Setups   int     `json:"setups"`
	// Slowdown plants a synthetic delay of this share of every call's time
	// inside the timed loop (harness self-test only).
	Slowdown float64 `json:"slowdown,omitempty"`
}

func (c *config) fillDefaults() error {
	switch c.Workload {
	case "disk_table1", "ball_fig8":
		if c.N == 0 {
			c.N = 1_000_000
		}
	case "session_drift":
		if c.N == 0 {
			c.N = 100_000
		}
		if c.Rounds == 0 {
			c.Rounds = 10
		}
		if c.Churn == 0 {
			c.Churn = 2000
		}
		if c.Churn%2 != 0 || c.Churn/2 >= c.N {
			return fmt.Errorf("churn %d must be even and below twice the membership %d", c.Churn, c.N)
		}
	default:
		return fmt.Errorf("unknown workload %q (want one of %v)", c.Workload, workloadNames)
	}
	if c.N < 1 {
		return fmt.Errorf("size %d must be positive", c.N)
	}
	if c.Setups == 0 {
		c.Setups = 3
	}
	return nil
}

func newWorkload(c config) workload {
	switch c.Workload {
	case "disk_table1":
		return newDiskRow(c.N, c.Seed)
	case "ball_fig8":
		return newBallRow(c.N, c.Seed)
	default:
		return newSession(c.N, c.Rounds, c.Churn, c.Seed)
	}
}

// run holds one run's raw measurements.
type run struct {
	cfg        config
	w          workload
	rec        *recorder
	setups     []float64 // seconds per set-up
	liveHeapMB float64
	iterations [2][]float64 // seconds per iteration, untraced and traced
	allocBytes []float64    // bytes allocated per untraced iteration
	failures   []string     // failed output checks
}

func (r *run) check(what string, err error) {
	if err != nil {
		r.failures = append(r.failures, what+": "+err.Error())
	}
}

// execute performs a run: set up (input generation plus an untimed
// warm-up iteration) cfg.Setups times, check the warm-up outputs, then
// iterate in a closed loop for cfg.Seconds, alternating untraced and
// traced iterations when tracing. Every iteration must repeat the warm-up
// outputs exactly; the last one gets the full checks again. An error means
// the run could not proceed; failed checks are collected in failures.
// mk makes the workload from cfg; main passes newWorkload.
func execute(cfg config, mk func(config) workload) (*run, error) {
	r := &run{cfg: cfg}
	var warm time.Duration
	for i := 0; i < cfg.Setups; i++ {
		r.w = nil
		runtime.GC()
		t0 := time.Now()
		w := mk(cfg)
		t1 := time.Now()
		if err := w.iterate(newRecorder(0)); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		warm = time.Since(t1)
		r.setups = append(r.setups, time.Since(t0).Seconds())
		r.w = w
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.liveHeapMB = float64(ms.HeapAlloc) / 1e6

	r.check("warm-up outputs", r.w.verify())
	ref := r.w.checksum()

	r.rec = newRecorder(cfg.Slowdown)
	expect := int(cfg.Seconds/warm.Seconds()*1.5) + 2
	r.rec.reserve(r.w.callsPerIteration(), expect, cfg.Trace)
	n := float64(r.w.nodes())
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < cfg.Seconds; i++ {
		traced := cfg.Trace && i%2 == 1
		// Every iteration starts from the same heap: the inputs alone.
		r.w.release()
		runtime.GC()
		var m0, m1 runtime.MemStats
		if !traced {
			runtime.ReadMemStats(&m0)
		}
		t := r.rec.beginIteration(traced)
		err := r.w.iterate(r.rec)
		d := r.rec.endIteration(t)
		if err != nil {
			return nil, fmt.Errorf("iteration %d: %w", i, err)
		}
		if traced {
			r.iterations[1] = append(r.iterations[1], d.Seconds())
		} else {
			runtime.ReadMemStats(&m1)
			r.iterations[0] = append(r.iterations[0], d.Seconds())
			r.allocBytes = append(r.allocBytes, float64(m1.TotalAlloc-m0.TotalAlloc)/n)
		}
		if got := r.w.checksum(); got != ref {
			r.check(fmt.Sprintf("iteration %d", i),
				fmt.Errorf("outputs checksum %#x differ from the warm-up's %#x", got, ref))
		}
	}
	r.check("last iteration outputs", r.w.verify())
	return r, nil
}
