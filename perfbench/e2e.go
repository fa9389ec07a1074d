package main

// e2e.go is the untraced run of each workload. A run is repeats
// repetitions of: set the system up (timed), drive the closed loop for
// an equal share of the run's seconds, check the outputs. The failover
// drill follows the last repetition. Spreading the measured time over
// the run, and reporting the median set-up time, keeps a run's figures
// steady on a shared host.

import "time"

// repeats is the number of repetitions in a run.
const repeats = 3

// runAgg accumulates the repetitions of a run.
type runAgg struct {
	lr       loopResult
	cycles   int64
	setup    []float64 // seconds
	failover float64   // Promote seconds
	correct  bool
}

func newRunAgg() *runAgg { return &runAgg{correct: true} }

// check logs a failed output check and marks the run incorrect.
func (a *runAgg) check(c runConfig, what string, err error) {
	if err != nil {
		c.logf("%s: check failed %s: %v", c.workload, what, err)
		a.correct = false
	}
}

// segment is the measured time of one repetition.
func (c runConfig) segment() time.Duration { return c.duration() / repeats }

// result reports the end-to-end metrics.
func (a *runAgg) result(c runConfig) (result, error) {
	lr := a.lr
	lat, err := summarise(lr.lat)
	if err != nil {
		return result{}, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	if lr.firstErr != nil {
		c.logf("%s: %d of %d ops failed, first: %v", c.workload, lr.failed, lr.attempted, lr.firstErr)
	}
	ops := len(lr.lat)
	c.logf("%s: %d ops in %.3fs; latency over %d samples: p50 %.1fus p99 %.1fus, p%g %.1fus is the highest percentile with >= %d samples beyond it",
		c.workload, ops, lr.elapsed.Seconds(), lat.n, lat.p50, lat.p99, lat.tailP, lat.tail, minBeyond)
	c.logf("%s: set-up %.3fs (median of %d), failover %.3fs", c.workload, median(a.setup), len(a.setup), a.failover)
	m := metrics{}
	m.set("ops_per_s", lr.opsPerSec(), "1/s")
	m.set("p50_us", lat.p50, "us")
	m.set("p99_us", lat.p99, "us")
	m.set("cycles_per_op", float64(a.cycles)/float64(ops), "cycles")
	m.set("ok_frac", 1-float64(lr.failed)/float64(lr.attempted), "1")
	m.set("setup_s", median(a.setup), "s")
	m.set("peak_rss_mb", rss, "MiB")
	m.set("failover_s", a.failover, "s")
	return result{Correct: a.correct && lr.wrong == 0, Attempted: lr.attempted, Failed: lr.failed, Metrics: m}, nil
}

// drill runs the failover drill on k and reads every key back.
func (a *runAgg) drill(c runConfig, k *kvFabric) error {
	fo, err := k.failover()
	if err != nil {
		return err
	}
	a.failover = fo.promote.Seconds()
	a.check(c, "readback after failover", k.verify(true))
	return nil
}

// runKV is the untraced run of a KV workload. The failover drill runs
// once, on the last repetition's fabric.
func runKV(c runConfig, w kvWorkload) (result, error) {
	a := newRunAgg()
	gens := w.gens(c.seed)
	for r := range repeats {
		t0 := time.Now()
		k, err := bootFabric(1, kvKeys, nil)
		if err != nil {
			return result{}, err
		}
		a.setup = append(a.setup, time.Since(t0).Seconds())
		c0 := k.cycles()
		a.lr.merge(closedLoop(clients, c.segment(), k.op(w, gens)))
		a.cycles += k.cycles() - c0
		a.check(c, "readback after the timed phase", k.verify(false))
		if r == repeats-1 {
			err = a.drill(c, k)
		}
		k.close()
		if err != nil {
			return result{}, err
		}
	}
	return a.result(c)
}

// rmiBoots is the number of World boots per rmi-mix repetition. A boot
// is cheap, but most of it is generating the signing key, whose time
// varies widely, so set-up is sampled more often.
const rmiBoots = 5

// runRMI is the untraced run of rmi-mix, which uses no fabric: the
// failover drill runs afterwards on a fabric booted for it.
func runRMI(c runConfig) (result, error) {
	a := newRunAgg()
	cs := newRMIClients(c.seed)
	for range repeats {
		var rw *rmiWorld
		for range rmiBoots {
			if rw != nil {
				rw.close()
			}
			t0 := time.Now()
			var err error
			if rw, err = bootRMI(c.seed); err != nil {
				return result{}, err
			}
			a.setup = append(a.setup, time.Since(t0).Seconds())
		}
		ph, err := rw.phase(cs, c.segment(), false)
		rw.close()
		if err != nil {
			return result{}, err
		}
		a.lr.merge(ph.lr)
		a.cycles += ph.cycles
		a.check(c, "rmi garbage collection", ph.gcErr)
	}
	k, err := bootFabric(1, kvKeys, nil)
	if err != nil {
		return result{}, err
	}
	defer k.close()
	if err := a.drill(c, k); err != nil {
		return result{}, err
	}
	return a.result(c)
}
