package main

// loop.go is the closed loop every workload runs in: a fixed set of
// clients, each sending its next operation only after the previous one
// returned, as an application thread waiting for its ack does.

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// clients is the closed-loop client count of every workload.
const clients = 2

// errWrong marks an operation that completed but returned an output the
// benchmark's checks reject; the run is then reported incorrect.
var errWrong = errors.New("wrong output")

func wrongf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errWrong, fmt.Sprintf(format, args...))
}

// opKind labels an operation so a phase can be split by kind.
type opKind uint8

const (
	opPut opKind = iota
	opGet
	opPing
	opAppend
	opLifecycle
)

// loopResult is what one closed-loop phase measured.
type loopResult struct {
	lat       []time.Duration // per completed op
	kinds     []opKind        // kind of each completed op
	attempted int
	failed    int // ops that returned an error, wrong outputs included
	wrong     int // ops whose output failed a check
	firstErr  error
	elapsed   time.Duration
}

func (r loopResult) opsPerSec() float64 {
	return float64(len(r.lat)) / r.elapsed.Seconds()
}

// latOf returns the latencies of the completed ops of kind k.
func (r loopResult) latOf(k opKind) []time.Duration {
	var out []time.Duration
	for i, d := range r.lat {
		if r.kinds[i] == k {
			out = append(out, d)
		}
	}
	return out
}

// count returns the number of completed ops of kind k.
func (r loopResult) count(k opKind) int {
	n := 0
	for _, kk := range r.kinds {
		if kk == k {
			n++
		}
	}
	return n
}

// merge appends another phase's ops to r, as if the phases ran back to
// back.
func (r *loopResult) merge(o loopResult) {
	r.lat = append(r.lat, o.lat...)
	r.kinds = append(r.kinds, o.kinds...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.wrong += o.wrong
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	r.elapsed += o.elapsed
}

// record adds the outcome of one attempted operation that took d.
func (r *loopResult) record(kind opKind, d time.Duration, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if errors.Is(err, errWrong) {
			r.wrong++
		}
		if r.firstErr == nil {
			r.firstErr = err
		}
		return
	}
	r.lat = append(r.lat, d)
	r.kinds = append(r.kinds, kind)
}

// closedLoop runs n clients for d. op(c) performs client c's next
// operation; a client stops at the first completion past the deadline.
func closedLoop(n int, d time.Duration, op func(c int) (opKind, error)) loopResult {
	return interleaved(n, d, op)[0]
}

// interleaved is a closed loop over several stages: each client sends
// one operation to every stage per round, so that host noise, which
// drifts over seconds, falls on every stage alike. The order within a
// round is shuffled, so no stage always runs right after the same other
// stage (and finds the caches that stage left). It returns one result
// per stage, each with the whole loop's elapsed time.
func interleaved(n int, d time.Duration, stages ...func(c int) (opKind, error)) []loopResult {
	res := make([][]loopResult, n) // by client, then stage
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := range n {
		res[c] = make([]loopResult, len(stages))
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := newRand(uint64(c), uint64(len(stages)))
			order := make([]int, len(stages))
			for k := 0; ; k = (k + 1) % len(order) {
				if k == 0 {
					for i := range order {
						order[i] = i
					}
					r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				}
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				i := order[k]
				kind, err := stages[i](c)
				res[c][i].record(kind, time.Since(t0), err)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	out := make([]loopResult, len(stages))
	for i := range out {
		for c := range n {
			out[i].merge(res[c][i])
		}
		out[i].elapsed = elapsed
	}
	return out
}

// parallel runs fn(c) on n goroutines and returns the first error.
func parallel(n int, fn func(c int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = fn(c)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
