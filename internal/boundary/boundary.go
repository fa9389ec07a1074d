// Package boundary is the dispatch layer for cross-runtime calls: every
// transition a partitioned world makes — proxy relay invocations, GC
// sweep releases, batched call frames — is routed through a Dispatcher
// rather than hitting the raw ecall/ocall transport directly.
//
// The layer implements the two transition-avoidance levers of the
// paper's §7 future work:
//
//   - switchless transitions (Tian et al., SysTEX'18): a charge policy,
//     not a separate mechanism. Under simcfg.Config.Switchless the
//     transport charges every transition SwitchlessCallCycles instead
//     of a full context switch; the dispatcher labels those calls
//     "switchless" and counts them apart from full transitions. The
//     only resident workers are the ring consumers (ringroute.go).
//   - transition batching (Queue): result-independent relay calls are
//     coalesced and flushed in one transition; see queue.go.
//
// The package is mechanism-only: it never inspects call payloads, so
// the world layer stays the single owner of marshalling and dispatch
// semantics.
package boundary

import (
	"sync/atomic"
	"time"

	"montsalvat/internal/cycles"
	"montsalvat/internal/ring"
	"montsalvat/internal/telemetry"
)

// Transport performs full enclave transitions. *sgx.Enclave satisfies
// it.
type Transport interface {
	Ecall(id int, fn func() error) error
	Ocall(id int, fn func() error) error
}

// Stats counts how the dispatcher routed calls. FullCalls +
// SwitchlessCalls is the number of transitions the dispatcher made.
type Stats struct {
	// FullCalls crossed with a transition charged at the full
	// ecall/ocall rate.
	FullCalls uint64
	// SwitchlessCalls crossed with a transition charged at the
	// switchless rate (simcfg.Config.Switchless).
	SwitchlessCalls uint64
}

// Dispatcher routes cross-runtime calls over a Transport, and over the
// zero-copy ring groups when they are attached.
type Dispatcher struct {
	transport  Transport
	clock      *cycles.Clock
	switchless bool
	ecallRings *ring.Group
	ocallRings *ring.Group

	transitions  atomic.Uint64
	ringCalls    atomic.Uint64
	ringFallback atomic.Uint64
	ringOversize atomic.Uint64

	// Telemetry instruments, resolved once by SetTelemetry. All nil when
	// observability is off; every use is nil-safe, so the disabled cost
	// is one pointer comparison per call.
	hDispatchNS *telemetry.Histogram
	hBodyCycles *telemetry.Histogram
}

// NewDispatcher builds a dispatcher over a transport. switchless says
// the transport charges its transitions at the switchless rate, so
// they are counted and traced as route "switchless". The clock feeds
// the body-cost observations of traced or instrumented calls; nil
// disables them.
func NewDispatcher(t Transport, clock *cycles.Clock, switchless bool) *Dispatcher {
	return &Dispatcher{transport: t, clock: clock, switchless: switchless}
}

// SetTelemetry attaches a metrics registry. The dispatcher resolves its
// instruments once here; the routing counters themselves stay private
// atomics and are absorbed by a collector at scrape time (see
// world.initTelemetry), so the hot path gains no extra writes.
func (d *Dispatcher) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	d.hDispatchNS = reg.Histogram("montsalvat_boundary_dispatch_ns")
	d.hBodyCycles = reg.Histogram("montsalvat_boundary_body_cycles")
}

// Invoke crosses the boundary in the given direction (in=true enters
// the enclave) and runs fn on the other side.
func (d *Dispatcher) Invoke(in bool, id int, fn func() error) error {
	return d.InvokeSpan(in, id, nil, fn)
}

// InvokeSpan is Invoke carrying an optional trace span for the
// transition. The span (nil for unsampled calls) receives the route,
// direction and routine id here, and the far-side body cost from the
// observation wrapper; the caller owns Finish.
func (d *Dispatcher) InvokeSpan(in bool, id int, sp *telemetry.Span, fn func() error) error {
	sp.SetDir(in)
	sp.SetRoutine(id)
	if d.switchless {
		sp.SetRoute("switchless")
	} else {
		sp.SetRoute("full")
	}
	var start time.Time
	if d.hDispatchNS != nil {
		start = time.Now()
	}
	if d.clock != nil && (d.hBodyCycles != nil || sp != nil) {
		fn = d.observed(sp, fn)
	}
	d.transitions.Add(1)
	var err error
	if in {
		err = d.transport.Ecall(id, fn)
	} else {
		err = d.transport.Ocall(id, fn)
	}
	if d.hDispatchNS != nil {
		d.hDispatchNS.ObserveDuration(time.Since(start))
	}
	return err
}

// Close stops any attached ring groups.
func (d *Dispatcher) Close() {
	d.ecallRings.Close()
	d.ocallRings.Close()
}

// Stats returns a snapshot of the routing counters.
func (d *Dispatcher) Stats() Stats {
	n := d.transitions.Load()
	if d.switchless {
		return Stats{SwitchlessCalls: n}
	}
	return Stats{FullCalls: n}
}

// observed wraps fn to record its body cost (cycles charged between
// entry and return, excluding the transition itself) into the
// body-cycles histogram and the span.
func (d *Dispatcher) observed(sp *telemetry.Span, fn func() error) func() error {
	return func() error {
		start := d.clock.Total()
		err := fn()
		spent := d.clock.Total() - start
		sp.SetBodyCycles(spent)
		d.hBodyCycles.Observe(spent)
		return err
	}
}
