package main

// rmi.go is the rmi-mix workload: the paper's micro program (a trusted
// TObj and an untrusted UObj of identical shape) in a partitioned World
// with switchless calls, batching and rings all on. Each client runs
// object lifecycles from the untrusted side: create a TObj proxy, make
// eight void set calls (batched), pass one list to setAll, read get,
// then drop the proxy for the GC helpers to collect.

import (
	"fmt"
	"math/rand/v2"
	"time"

	"montsalvat/internal/boundary"
	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/heap"
	"montsalvat/internal/simcfg"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

const (
	rmiTrusted   = "TObj"
	rmiUntrusted = "UObj"
	// rmiSets is the number of void set calls per lifecycle.
	rmiSets = 8
	// rmiGCInterval is the GC helpers' scan period.
	rmiGCInterval = 20 * time.Millisecond
	// rmiUntrustedHeap fixes the untrusted semispace. Each lifecycle
	// leaves one dead proxy of about 24 bytes there, so at this size the
	// collector runs every few hundred lifecycles and the GC helpers
	// release the mirrors of the collected proxies.
	rmiUntrustedHeap = 16 << 10
)

// setAll argument classes: most lists are small, about one in ten is
// large but still fits one ring slot, and about one in a hundred
// exceeds the slot and takes the frame path.
const (
	smallListBytes = 256
	largeListBytes = simcfg.DefaultRingSlotBytes - 8<<10
	overListBytes  = simcfg.DefaultRingSlotBytes + 8<<10
	largeFrac      = 0.10
	overFrac       = 0.01
)

// listClass names a setAll argument class.
type listClass int

const (
	listSmall listClass = iota
	listLarge
	listOver
)

func (l listClass) String() string { return [...]string{"small", "large", "over"}[l] }

// listBlock is the number of lifecycles over which the class shares
// are exact.
const listBlock = 100

// listBlockClasses returns one block's classes, in order.
func listBlockClasses() []listClass {
	b := make([]listClass, listBlock)
	over, large := int(overFrac*listBlock), int(largeFrac*listBlock)
	for i := range over + large {
		b[i] = listLarge
		if i < over {
			b[i] = listOver
		}
	}
	return b
}

// intList builds a list of seeded ints whose wire encoding is at least
// nBytes long.
func intList(r *rand.Rand, nBytes int) wire.Value {
	var vs []wire.Value
	size := 0
	for size < nBytes {
		v := wire.Int(r.Int64N(1 << 40))
		size += wire.Size(v)
		vs = append(vs, v)
	}
	return wire.List(vs...)
}

// rmiProgram builds the micro program. Both classes hold x (written by
// set, read by get) and n (the length setAll stores and returns).
func rmiProgram() (*classmodel.Program, error) {
	p := classmodel.NewProgram()
	for _, spec := range []struct {
		name string
		ann  classmodel.Annotation
	}{{rmiTrusted, classmodel.Trusted}, {rmiUntrusted, classmodel.Untrusted}} {
		c := classmodel.NewClass(spec.name, spec.ann)
		for _, f := range []string{"x", "n"} {
			if err := c.AddField(classmodel.Field{Name: f, Kind: classmodel.FieldInt}); err != nil {
				return nil, err
			}
		}
		setX := func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			return wire.Null(), env.SetField(self, "x", args[0])
		}
		methods := []*classmodel.Method{
			{Name: classmodel.CtorName, Public: true, Params: []classmodel.Param{{Name: "v", Kind: wire.KindInt}}, Body: setX},
			{Name: "set", Public: true, Params: []classmodel.Param{{Name: "v", Kind: wire.KindInt}}, Body: setX},
			{
				Name: "setAll", Public: true, Returns: wire.KindInt,
				Params: []classmodel.Param{{Name: "vs", Kind: wire.KindList}},
				Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
					n := wire.Int(int64(args[0].Len()))
					return n, env.SetField(self, "n", n)
				},
			},
			{
				Name: "get", Public: true, Returns: wire.KindInt,
				Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
					return env.GetField(self, "x")
				},
			},
		}
		for _, m := range methods {
			if err := c.AddMethod(m); err != nil {
				return nil, err
			}
		}
		if err := p.AddClass(c); err != nil {
			return nil, err
		}
	}
	calls := func(class string) []classmodel.MethodRef {
		return []classmodel.MethodRef{{Class: class, Method: "set"}, {Class: class, Method: "setAll"}, {Class: class, Method: "get"}}
	}
	// The trusted anchor keeps the untrusted proxy reachable in the
	// trusted image; main keeps both classes reachable in the untrusted
	// image, which is where the clients run.
	anchor := classmodel.NewClass("Anchor", classmodel.Trusted)
	nop := func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
		return wire.Null(), nil
	}
	if err := anchor.AddMethod(&classmodel.Method{
		Name: "touch", Public: true, Static: true,
		Allocates: []string{rmiUntrusted}, Calls: calls(rmiUntrusted), Body: nop,
	}); err != nil {
		return nil, err
	}
	mainC := classmodel.NewClass("MicroMain", classmodel.Untrusted)
	if err := mainC.AddMethod(&classmodel.Method{
		Name: classmodel.MainMethodName, Static: true, Public: true,
		Allocates: []string{rmiTrusted, rmiUntrusted},
		Calls:     append(calls(rmiTrusted), calls(rmiUntrusted)...),
		Body:      nop,
	}); err != nil {
		return nil, err
	}
	for _, c := range []*classmodel.Class{anchor, mainC} {
		if err := p.AddClass(c); err != nil {
			return nil, err
		}
	}
	p.MainClass = "MicroMain"
	return p, nil
}

// rmiWorld is a booted micro-program World with its setAll arguments.
type rmiWorld struct {
	w     *world.World
	lists [3]wire.Value // by listClass
}

// bootRMI builds and boots the partitioned World (partitioning
// transform, image build, enclave signing) and starts its GC helpers.
func bootRMI(seed uint64) (*rmiWorld, error) {
	prog, err := rmiProgram()
	if err != nil {
		return nil, err
	}
	opts := world.DefaultOptions()
	opts.Cfg.Switchless = true
	opts.Cfg.Batching = true
	opts.Cfg.Rings = true
	opts.GCHelperInterval = rmiGCInterval
	opts.UntrustedHeap = heap.Config{InitialSemi: rmiUntrustedHeap, MaxSemi: rmiUntrustedHeap}
	w, _, err := core.NewPartitionedWorld(prog, opts)
	if err != nil {
		return nil, fmt.Errorf("boot rmi world: %w", err)
	}
	r := newRand(seed, 0)
	rw := &rmiWorld{w: w}
	rw.lists[listSmall] = intList(r, smallListBytes)
	rw.lists[listLarge] = intList(r, largeListBytes)
	rw.lists[listOver] = intList(r, overListBytes)
	w.StartGCHelpers()
	return rw, nil
}

func (rw *rmiWorld) close() { rw.w.Close() }

// lifecycleTimes is the per-step wall time of one lifecycle.
type lifecycleTimes struct {
	newProxy, sets, flush, setAll, get time.Duration
}

// lifecycle runs one object lifecycle with the given constructor and
// set values and setAll argument class, checks its outputs, and returns
// the time of each step. The proxy is dropped when the Exec frame ends.
// With flush set, the batched sets are flushed explicitly (and timed)
// before setAll instead of by setAll's result dependency.
func (rw *rmiWorld) lifecycle(vals []int64, lc listClass, flush bool) (lifecycleTimes, error) {
	var t lifecycleTimes
	list := rw.lists[lc]
	err := rw.w.Exec(false, func(env classmodel.Env) error {
		t0 := time.Now()
		p, err := env.New(rmiTrusted, wire.Int(vals[0]))
		if err != nil {
			return err
		}
		t.newProxy = time.Since(t0)
		t0 = time.Now()
		for _, v := range vals[1:] {
			if _, err := env.Call(p, "set", wire.Int(v)); err != nil {
				return err
			}
		}
		t.sets = time.Since(t0)
		if flush {
			t0 = time.Now()
			if err := rw.w.Flush(); err != nil {
				return err
			}
			t.flush = time.Since(t0)
		}
		t0 = time.Now()
		n, err := env.Call(p, "setAll", list)
		if err != nil {
			return err
		}
		t.setAll = time.Since(t0)
		t0 = time.Now()
		x, err := env.Call(p, "get")
		if err != nil {
			return err
		}
		t.get = time.Since(t0)
		if got, _ := n.AsInt(); got != int64(list.Len()) {
			return wrongf("setAll(%s list) returned %v, want %d", lc, n, list.Len())
		}
		if got, _ := x.AsInt(); got != vals[len(vals)-1] {
			return wrongf("get returned %v, last set %d", x, vals[len(vals)-1])
		}
		return nil
	})
	return t, err
}

// rmiClient draws one client's lifecycle inputs.
type rmiClient struct {
	r     *rand.Rand
	vals  []int64
	block []listClass // the list classes left in the current block
}

func newRMIClients(seed uint64) []*rmiClient {
	cs := make([]*rmiClient, clients)
	for c := range cs {
		cs[c] = &rmiClient{r: newRand(seed, uint64(c)+1), vals: make([]int64, rmiSets+1)}
	}
	return cs
}

// next draws the constructor and set values and the list class. The
// classes come in shuffled blocks of listBlock lifecycles holding the
// exact class shares, so every run sends the same mix of sizes.
func (c *rmiClient) next() ([]int64, listClass) {
	for i := range c.vals {
		c.vals[i] = c.r.Int64()
	}
	if len(c.block) == 0 {
		c.block = listBlockClasses()
		c.r.Shuffle(len(c.block), func(i, j int) { c.block[i], c.block[j] = c.block[j], c.block[i] })
	}
	lc := c.block[0]
	c.block = c.block[1:]
	return c.vals, lc
}

// quiesce stops the GC helpers, then collects both heaps and sweeps
// both weak lists three times over (a release on one side can leave
// garbage for the other), and returns the live cross-boundary object
// count. The caller restarts the helpers.
func (rw *rmiWorld) quiesce() (int, error) {
	w := rw.w
	w.StopGCHelpers()
	if err := w.Flush(); err != nil {
		return 0, err
	}
	for range 3 {
		for _, rt := range []*world.Runtime{w.Untrusted(), w.Trusted()} {
			if err := rt.Collect(); err != nil {
				return 0, err
			}
			if err := w.SweepOnce(rt); err != nil {
				return 0, err
			}
		}
		if err := w.Flush(); err != nil {
			return 0, err
		}
	}
	return w.LiveObjects(), nil
}

// rmiWarmup is the untimed warm-up before a phase's baseline is taken.
const rmiWarmup = time.Second

// rmiPhase is what one timed rmi-mix phase measured.
type rmiPhase struct {
	lr            loopResult // lifecycles
	traced        loopResult // lifecycles whose step times were kept
	cycles        int64
	before, after world.Stats
	pool          boundary.BufPoolStats
	// steps holds each traced lifecycle's step times and list class.
	steps    []lifecycleTimes
	classes  []listClass
	released uint64 // mirrors the GC helpers released during the phase
	gcErr    error  // the phase's garbage-collection check
}

// phase warms the World up with the clients' next lifecycles, takes
// the live-object baseline, runs the closed loop for d, and checks that
// the GC helpers released mirrors and that a final sweep returns the
// live objects to the baseline. A traced phase interleaves lifecycles
// whose step times are kept with lifecycles whose are not.
func (rw *rmiWorld) phase(cs []*rmiClient, d time.Duration, traced bool) (rmiPhase, error) {
	var ph rmiPhase
	steps := make([][]lifecycleTimes, clients)
	classes := make([][]listClass, clients)
	plain := func(c int) (opKind, error) {
		vals, lc := cs[c].next()
		_, err := rw.lifecycle(vals, lc, false)
		return opLifecycle, err
	}
	stages := []func(c int) (opKind, error){plain}
	if traced {
		stages = append(stages, func(c int) (opKind, error) {
			vals, lc := cs[c].next()
			t, err := rw.lifecycle(vals, lc, false)
			if err == nil {
				steps[c] = append(steps[c], t)
				classes[c] = append(classes[c], lc)
			}
			return opLifecycle, err
		})
	}
	closedLoop(clients, rmiWarmup, plain)
	base, err := rw.quiesce()
	if err != nil {
		return ph, err
	}
	rw.w.StartGCHelpers()
	rw.w.ResetPoolStats()
	ph.before = rw.w.Stats()
	rs := interleaved(clients, d, stages...)
	ph.after = rw.w.Stats()
	ph.lr = rs[0]
	if traced {
		ph.traced = rs[1]
	}
	ph.pool = rw.w.PoolStats()
	ph.cycles = ph.after.Cycles - ph.before.Cycles
	ph.released = released(ph.after) - released(ph.before)
	for c := range steps {
		ph.steps = append(ph.steps, steps[c]...)
		ph.classes = append(ph.classes, classes[c]...)
	}
	live, err := rw.quiesce()
	if err != nil {
		return ph, err
	}
	rw.w.StartGCHelpers()
	switch {
	case ph.released == 0:
		ph.gcErr = fmt.Errorf("the GC helpers released no mirrors during the phase")
	case live != base:
		ph.gcErr = fmt.Errorf("%d live objects after the final sweep, baseline %d", live, base)
	}
	return ph, nil
}

// released is the number of mirrors the GC sweeps released.
func released(s world.Stats) uint64 {
	return s.TrustedSweeps.Released + s.UntrustedSweeps.Released
}
