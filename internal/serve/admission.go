package serve

import (
	"sync/atomic"
	"time"
)

// admission is the gateway's bounded in-flight controller. At most
// maxInFlight requests execute concurrently; at most queueDepth more may
// wait for a slot. Anything beyond that is rejected immediately with
// ErrOverloaded, a request whose deadline expires while queued is
// rejected with ErrDeadline, and a drain signal rejects all waiters with
// ErrDraining — overload degrades into typed errors, never into an
// unbounded queue.
//
// One counter, occupied, bounds executing plus queued requests: a
// request holds its count from acquire until release, so a waiter
// handed a slot never counts twice while it moves from the queue to
// execution, and a slot released before the reply is already free
// when the client sends its next request.
type admission struct {
	tokens   chan struct{}
	capacity int64 // maxInFlight + queueDepth
	occupied atomic.Int64
	inFlight atomic.Int64
	peak     atomic.Int64
}

func newAdmission(maxInFlight, queueDepth int) *admission {
	if maxInFlight <= 0 {
		maxInFlight = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	a := &admission{
		tokens:   make(chan struct{}, maxInFlight),
		capacity: int64(maxInFlight + queueDepth),
	}
	for i := 0; i < maxInFlight; i++ {
		a.tokens <- struct{}{}
	}
	return a
}

// acquire takes an execution slot. deadline zero means no deadline;
// drain, when closed, aborts waiting with ErrDraining.
func (a *admission) acquire(deadline time.Time, drain <-chan struct{}) error {
	if a.occupied.Add(1) > a.capacity {
		a.occupied.Add(-1)
		return ErrOverloaded
	}
	select {
	case <-a.tokens:
		a.admitted()
		return nil
	default:
	}
	// Slow path: queue for a slot.
	var timeout <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-a.tokens:
		a.admitted()
		return nil
	case <-timeout:
		a.occupied.Add(-1)
		return ErrDeadline
	case <-drain:
		a.occupied.Add(-1)
		return ErrDraining
	}
}

func (a *admission) admitted() {
	cur := a.inFlight.Add(1)
	for {
		p := a.peak.Load()
		if cur <= p || a.peak.CompareAndSwap(p, cur) {
			return
		}
	}
}

// release returns an execution slot.
func (a *admission) release() {
	a.inFlight.Add(-1)
	a.occupied.Add(-1)
	a.tokens <- struct{}{}
}

// current returns the number of requests executing right now.
func (a *admission) current() int { return int(a.inFlight.Load()) }

// peakInFlight returns the high-water mark of concurrent execution.
func (a *admission) peakInFlight() int { return int(a.peak.Load()) }
