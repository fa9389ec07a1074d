// Package world implements the Montsalvat application runtime: the glue
// that executes a partitioned program across the trusted (enclave) and
// untrusted runtimes.
//
// A World owns up to two Runtimes, each the analog of a GraalVM isolate
// loaded from one native image (§5.4: "At runtime, a GraalVM isolate is
// created in both the trusted and untrusted part of the application").
// Cross-runtime object communication follows §5.2: instantiating or
// invoking a class that is a proxy in the local image marshals the
// arguments, performs an ecall/ocall transition through the simulated
// enclave, and dispatches the corresponding relay method in the opposite
// runtime, which resolves the mirror object in its mirror–proxy registry.
//
// GC synchronisation follows §5.5: each runtime weak-tracks its proxy
// objects; a GC helper thread per runtime periodically sweeps the weak
// list and releases the mirrors of dead proxies in the opposite runtime's
// registry, making them collectable.
package world

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"montsalvat/internal/boundary"
	"montsalvat/internal/classmodel"
	"montsalvat/internal/cycles"
	"montsalvat/internal/edl"
	"montsalvat/internal/heap"
	"montsalvat/internal/image"
	"montsalvat/internal/ring"
	"montsalvat/internal/sgx"
	"montsalvat/internal/shim"
	"montsalvat/internal/simcfg"
	"montsalvat/internal/telemetry"
	"montsalvat/internal/wire"
)

// Reserved transition identifiers (application relay routines use the
// EDL-assigned positive IDs; the shim uses the 9000 range).
const (
	idGCHelper = 9100 // long-running ecall hosting the trusted GC helper
	idGCSweep  = 9101 // cross-boundary mirror-release batches
	idBatch    = 9102 // batched relay-call frames (boundary dispatch layer)
	idMain     = 9200 // unpartitioned main entry ecall
	idExec     = 9201 // ad-hoc trusted execution (benchmark harness)
)

// gcReleaseMethod marks a batched-frame entry as a registry release
// rather than a relay invocation. The name cannot collide with relay
// methods, which all carry the transform.RelayPrefix.
const gcReleaseMethod = "<gc-release>"

// Mode selects the deployment configuration evaluated in the paper.
type Mode int

// Deployment modes.
const (
	// ModePartitioned runs the transformed application across an
	// untrusted runtime and a trusted runtime inside the enclave.
	ModePartitioned Mode = iota + 1
	// ModeUnpartitionedSGX runs the whole unmodified application as one
	// native image inside the enclave (§5.6).
	ModeUnpartitionedSGX
	// ModeNoSGX runs the whole application as one native image with no
	// enclave — the paper's NoSGX baseline.
	ModeNoSGX
)

func (m Mode) String() string {
	switch m {
	case ModePartitioned:
		return "partitioned"
	case ModeUnpartitionedSGX:
		return "unpartitioned-sgx"
	case ModeNoSGX:
		return "no-sgx"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Errors returned by the runtime.
var (
	ErrNoSuchObject   = errors.New("world: no live object for hash")
	ErrStaleMirror    = errors.New("world: mirror released; proxy outlived registry entry")
	ErrNeutralByValue = errors.New("world: neutral objects cross the boundary by value, not by reference")
	ErrBadArity       = errors.New("world: argument count mismatch")
	ErrNotRef         = errors.New("world: receiver is not an object reference")
	ErrWrongRuntime   = errors.New("world: operation not available in this mode")
)

// Options configures a World.
type Options struct {
	// Cfg is the platform cost configuration.
	Cfg simcfg.Config
	// TrustedHeap and UntrustedHeap size the isolate heaps.
	TrustedHeap   heap.Config
	UntrustedHeap heap.Config
	// HostFS is the untrusted filesystem (defaults to an in-memory FS).
	HostFS shim.FS
	// NumTCS bounds concurrent enclave threads (default 32; relay chains
	// consume one slot per nesting level).
	NumTCS int
	// Signer signs the trusted image (generated when nil).
	Signer *sgx.Signer
	// GCHelperInterval overrides Cfg.GCHelperInterval when positive: the
	// scan period of the GC helper threads. Long-lived servers with many
	// sessions tune this down so released sessions' mirrors are reclaimed
	// promptly (see World.SweepStats for observed cadence).
	GCHelperInterval time.Duration
	// Telemetry, when non-nil, instruments every boundary crossing:
	// transition latency/cycle histograms, batching queue waits, GC sweep
	// counters and — if the bundle has tracing enabled — sampled spans
	// per proxy-call chain. Nil disables observability at a cost of one
	// branch per instrumented site.
	Telemetry *telemetry.Telemetry
}

// DefaultOptions returns options suitable for tests.
func DefaultOptions() Options {
	return Options{
		Cfg:           simcfg.ForTest(),
		TrustedHeap:   heap.Config{InitialSemi: 1 << 20, MaxSemi: 256 << 20},
		UntrustedHeap: heap.Config{InitialSemi: 1 << 20, MaxSemi: 256 << 20},
	}
}

// World hosts a running (possibly partitioned) application.
type World struct {
	mode    Mode
	cfg     simcfg.Config
	clock   *cycles.Clock
	enclave *sgx.Enclave // nil in ModeNoSGX
	iface   *edl.File    // nil unless partitioned

	trusted   *Runtime // nil in ModeNoSGX
	untrusted *Runtime // nil in ModeUnpartitionedSGX

	// stateMu guards the rebuildable state (enclave, runtimes,
	// dispatcher, pools) against the restart path: Kill/Restart swap
	// them under the write lock while accessors, Exec and the telemetry
	// collector read under the read lock. buildOpts/tImg/uImg retain the
	// build inputs — including the signing identity, so a re-created
	// enclave keeps its MRSIGNER and can unseal persistent state.
	stateMu   sync.RWMutex
	buildOpts Options
	tImg      *image.Image
	uImg      *image.Image
	killed    bool
	helpersOn bool // helpers were running when Kill hit; Restart revives them

	// disp routes every cross-runtime transition (nil unless
	// partitioned); bufs recycles marshal buffers; batching mirrors
	// cfg.Batching for the remote-call hot path.
	disp     *boundary.Dispatcher
	bufs     *boundary.BufPool
	batching bool

	// erings/orings are the zero-copy ring groups (nil unless
	// cfg.Rings); the dispatcher owns their shutdown, these references
	// feed the stats collectors. meeBytes counts bytes charged at MEE
	// copy rate on the frame path — the "copies" component of the
	// dispatch cycle breakdown.
	erings   *ring.Group
	orings   *ring.Group
	meeBytes atomic.Uint64

	// tel is the optional observability layer (nil when disabled).
	// hMarshal is the cached marshal-bytes histogram (nil when telemetry
	// is off).
	tel      *telemetry.Telemetry
	hMarshal *telemetry.Histogram

	hashCounter atomic.Int64

	helperStop     chan struct{}
	helperWG       sync.WaitGroup
	helperOn       bool
	helperInterval time.Duration

	hostFS shim.FS
}

// NewPartitioned creates a world from the two images produced by the
// Montsalvat pipeline plus their enclave interface. The trusted image is
// loaded into the enclave, measured and verified before use (Fig. 1).
func NewPartitioned(opts Options, tImg, uImg *image.Image, iface *edl.File) (*World, error) {
	if tImg == nil || uImg == nil || iface == nil {
		return nil, errors.New("world: partitioned mode needs both images and the enclave interface")
	}
	if tImg.Kind() != image.TrustedImage || uImg.Kind() != image.UntrustedImage {
		return nil, errors.New("world: image kinds mismatched")
	}
	if opts.Signer == nil {
		// Generate the signing identity up front and retain it in the
		// build options: a restarted enclave must be re-signed by the
		// same author or its MRSIGNER-sealed state becomes unreadable.
		signer, err := sgx.NewSigner()
		if err != nil {
			return nil, err
		}
		opts.Signer = signer
	}
	w, err := newWorld(ModePartitioned, opts)
	if err != nil {
		return nil, err
	}
	w.iface = iface
	w.buildOpts = opts
	w.tImg, w.uImg = tImg, uImg
	if err := w.initEnclave(opts, tImg); err != nil {
		return nil, err
	}
	w.trusted, err = w.newRuntime("trusted", true, tImg, opts.TrustedHeap)
	if err != nil {
		return nil, err
	}
	w.untrusted, err = w.newRuntime("untrusted", false, uImg, opts.UntrustedHeap)
	if err != nil {
		return nil, err
	}
	if err := w.initBoundary(); err != nil {
		return nil, err
	}
	if err := w.runStaticInits(); err != nil {
		return nil, err
	}
	return w, nil
}

// initBoundary builds the boundary dispatch layer of a partitioned
// world: the routing dispatcher, the per-runtime batching queues, and —
// with rings on — the resident ring consumers of both directions.
func (w *World) initBoundary() error {
	w.disp = boundary.NewDispatcher(w.enclave, w.clock, w.cfg.Switchless)
	w.disp.SetTelemetry(w.tel.Registry())
	if w.cfg.Rings {
		rcfg := ring.Config{
			Workers:   w.cfg.RingWorkers,
			Slots:     w.cfg.RingSlots,
			SlotBytes: w.cfg.RingSlotBytes,
		}
		// The ecall group's consumers are resident INSIDE the enclave
		// (each holds a TCS slot for the group's lifetime); the ocall
		// group's consumers are plain host goroutines.
		erings, err := ring.NewGroup(rcfg, w.clock, w.ringHandler(w.trusted), w.enclave.EnterResident)
		if err != nil {
			return fmt.Errorf("world: ecall ring group: %w", err)
		}
		orings, err := ring.NewGroup(rcfg, w.clock, w.ringHandler(w.untrusted), nil)
		if err != nil {
			erings.Close()
			return fmt.Errorf("world: ocall ring group: %w", err)
		}
		erings.SetTelemetry(w.tel.Registry(), "ecall")
		orings.SetTelemetry(w.tel.Registry(), "ocall")
		w.disp.UseRings(erings, orings)
		w.erings, w.orings = erings, orings
	}
	w.batching = w.cfg.Batching
	watermark := w.cfg.BatchWatermark
	if watermark <= 0 {
		watermark = simcfg.DefaultBatchWatermark
	}
	w.trusted.queue = boundary.NewQueue(watermark, w.batchRun(w.trusted))
	w.untrusted.queue = boundary.NewQueue(watermark, w.batchRun(w.untrusted))
	if reg := w.tel.Registry(); reg != nil {
		wait := reg.Histogram("montsalvat_boundary_queue_wait_ns")
		size := reg.Histogram("montsalvat_boundary_batch_size")
		w.trusted.queue.SetTelemetry(wait, size)
		w.untrusted.queue.SetTelemetry(wait, size)
	}
	return nil
}

// NewUnpartitioned creates a world running a single whole-application
// image, either inside the enclave (§5.6) or without SGX.
func NewUnpartitioned(opts Options, img *image.Image, inEnclave bool) (*World, error) {
	if img == nil {
		return nil, errors.New("world: nil image")
	}
	mode := ModeNoSGX
	if inEnclave {
		mode = ModeUnpartitionedSGX
	}
	w, err := newWorld(mode, opts)
	if err != nil {
		return nil, err
	}
	if inEnclave {
		if err := w.initEnclave(opts, img); err != nil {
			return nil, err
		}
		w.trusted, err = w.newRuntime("trusted", true, img, opts.TrustedHeap)
		if err != nil {
			return nil, err
		}
	} else {
		w.untrusted, err = w.newRuntime("untrusted", false, img, opts.UntrustedHeap)
		if err != nil {
			return nil, err
		}
	}
	if err := w.runStaticInits(); err != nil {
		return nil, err
	}
	return w, nil
}

func newWorld(mode Mode, opts Options) (*World, error) {
	hostFS := opts.HostFS
	if hostFS == nil {
		hostFS = shim.NewMemFS()
	}
	cfg := opts.Cfg
	if cfg.CPUHz == 0 {
		cfg = simcfg.ForTest()
	}
	clockMode := cycles.ModeVirtual
	if cfg.Spin {
		clockMode = cycles.ModeSpin
		if cfg.SleepCharges {
			clockMode = cycles.ModeSleep
		}
	}
	w := &World{
		mode:           mode,
		cfg:            cfg,
		clock:          cycles.NewWithMode(cfg.CPUHz, clockMode),
		bufs:           boundary.NewBufPool(),
		hostFS:         hostFS,
		helperInterval: opts.GCHelperInterval,
		tel:            opts.Telemetry,
	}
	if reg := w.tel.Registry(); reg != nil {
		w.hMarshal = reg.Histogram("montsalvat_boundary_marshal_bytes")
		reg.RegisterCollector(w.collectMetrics)
	}
	return w, nil
}

// initEnclave performs the SGX application-creation phase: create the
// enclave, add and measure the trusted image, sign and verify (Fig. 1).
func (w *World) initEnclave(opts Options, tImg *image.Image) error {
	numTCS := opts.NumTCS
	if numTCS <= 0 {
		numTCS = 32
	}
	encl, err := sgx.Create(w.cfg, w.clock, numTCS)
	if err != nil {
		return err
	}
	if err := encl.AddPages(tImg.Bytes()); err != nil {
		return err
	}
	signer := opts.Signer
	if signer == nil {
		signer, err = sgx.NewSigner()
		if err != nil {
			return err
		}
	}
	ss, err := signer.Sign(encl.Measurement())
	if err != nil {
		return err
	}
	if err := encl.Init(ss); err != nil {
		return fmt.Errorf("world: enclave init: %w", err)
	}
	w.enclave = encl
	return nil
}

func (w *World) newRuntime(name string, trusted bool, img *image.Image, hc heap.Config) (*Runtime, error) {
	if hc.InitialSemi == 0 {
		hc = heap.Config{InitialSemi: 1 << 20, MaxSemi: 256 << 20}
	}
	var (
		h   *heap.Heap
		err error
	)
	if trusted {
		h, err = heap.New(hc, func(size int) (heap.Backend, error) {
			return w.enclave.NewMemory(size)
		})
	} else {
		h, err = heap.NewPlain(hc)
	}
	if err != nil {
		return nil, fmt.Errorf("world: %s heap: %w", name, err)
	}
	rt, err := newRuntime(w, name, trusted, img, h)
	if err != nil {
		return nil, err
	}
	if reg := w.tel.Registry(); reg != nil {
		// Lock hold-time histogram of the registry's mutating critical
		// sections — with the shard-wait gauges, the contention telemetry
		// of the concurrent crossing engine.
		rt.reg.SetHoldObserver(reg.Histogram("montsalvat_registry_lock_hold_ns").Observe)
	}
	if trusted {
		rt.fs = shim.NewTrustedShim(w.enclave, w.hostFS)
	} else {
		rt.fs = w.hostFS
	}
	return rt, nil
}

// runStaticInits executes every reachable <clinit> — the analog of
// GraalVM's build-time class initialisation whose results are shipped in
// the image heap (§2.2). It runs before main with no transition costs.
func (w *World) runStaticInits() error {
	for _, rt := range []*Runtime{w.trusted, w.untrusted} {
		if rt == nil {
			continue
		}
		for _, c := range rt.img.Classes() {
			ref := classmodel.MethodRef{Class: c.Name, Method: classmodel.StaticInitName}
			if !rt.img.MethodCompiled(ref) {
				continue
			}
			if _, err := rt.dispatch(ref, wire.Null(), nil, nil); err != nil {
				return fmt.Errorf("world: <clinit> of %s: %w", c.Name, err)
			}
		}
	}
	return nil
}

// Mode returns the deployment mode.
func (w *World) Mode() Mode { return w.mode }

// Clock returns the world's cycle clock.
func (w *World) Clock() *cycles.Clock { return w.clock }

// Enclave returns the enclave (nil in ModeNoSGX, or while killed).
func (w *World) Enclave() *sgx.Enclave {
	w.stateMu.RLock()
	defer w.stateMu.RUnlock()
	return w.enclave
}

// Trusted returns the trusted runtime (nil in ModeNoSGX, or while
// killed).
func (w *World) Trusted() *Runtime {
	w.stateMu.RLock()
	defer w.stateMu.RUnlock()
	return w.trusted
}

// Untrusted returns the untrusted runtime (nil in ModeUnpartitionedSGX,
// or while killed).
func (w *World) Untrusted() *Runtime {
	w.stateMu.RLock()
	defer w.stateMu.RUnlock()
	return w.untrusted
}

// HostFS returns the untrusted filesystem.
func (w *World) HostFS() shim.FS { return w.hostFS }

// Telemetry returns the observability layer (nil when disabled).
func (w *World) Telemetry() *telemetry.Telemetry { return w.tel }

func (w *World) nextHash() int64 { return w.hashCounter.Add(1) }

// mainRuntime returns the runtime hosting the application main.
func (w *World) mainRuntime() *Runtime {
	if w.mode == ModeUnpartitionedSGX {
		return w.trusted
	}
	return w.untrusted
}

// RunMain invokes the application's main entry point and returns its
// result value. In partitioned and NoSGX modes main runs in the untrusted
// runtime (§5.3); in unpartitioned SGX mode the whole application —
// including main — executes inside the enclave behind a single ecall
// (§5.6).
func (w *World) RunMain() (wire.Value, error) {
	rt := w.mainRuntime()
	if rt == nil {
		return wire.Value{}, ErrWrongRuntime
	}
	prog := rt.img.Program()
	if prog.MainClass == "" {
		return wire.Value{}, errors.New("world: image has no main entry point")
	}
	var result wire.Value
	run := func() error {
		var err error
		result, err = rt.dispatch(classmodel.MethodRef{Class: prog.MainClass, Method: prog.MainMethod}, wire.Null(), nil, nil)
		return err
	}
	if w.mode == ModeUnpartitionedSGX {
		if err := w.enclave.Ecall(idMain, run); err != nil {
			return wire.Value{}, err
		}
		return result, nil
	}
	if err := run(); err != nil {
		return wire.Value{}, err
	}
	return result, nil
}

// ExecMain runs fn in the runtime that hosts the application main: the
// untrusted runtime in partitioned and NoSGX modes, the trusted runtime
// (behind an ecall) in unpartitioned SGX mode.
func (w *World) ExecMain(fn func(env classmodel.Env) error) error {
	return w.Exec(w.mode == ModeUnpartitionedSGX, fn)
}

// Exec runs fn with an execution environment in the chosen runtime — the
// harness used by benchmarks and examples to drive application objects
// directly. Trusted execution enters the enclave through one ecall.
func (w *World) Exec(trusted bool, fn func(env classmodel.Env) error) error {
	return w.ExecSpan(trusted, nil, fn)
}

// ExecSpan is Exec with an inbound trace span attached to the execution
// frame: proxy calls made by fn become children of sp, so a trace that
// began on another World (a gateway request, a peer call) continues
// through this one. A nil sp is exactly Exec.
func (w *World) ExecSpan(trusted bool, sp *telemetry.Span, fn func(env classmodel.Env) error) error {
	w.stateMu.RLock()
	var rt *Runtime
	if trusted {
		rt = w.trusted
	} else {
		rt = w.untrusted
	}
	encl := w.enclave
	w.stateMu.RUnlock()
	if rt == nil {
		return ErrWrongRuntime
	}
	run := func() error {
		fr := rt.newFrame()
		fr.span = sp
		defer rt.releaseFrame(fr)
		return fn(&env{rt: rt, fr: fr})
	}
	if trusted && encl != nil {
		return encl.Ecall(idExec, run)
	}
	return run()
}

// StartGCHelpers spawns the per-runtime GC helper threads (§5.5: "two GC
// helper threads are spawned in the application: one to scan the trusted
// list in the enclave, and the other to scan the untrusted list"). The
// trusted helper occupies an enclave thread for its lifetime.
func (w *World) StartGCHelpers() {
	if w.helperOn || w.mode != ModePartitioned {
		return
	}
	w.helperOn = true
	w.helperStop = make(chan struct{})
	interval := w.helperInterval
	if interval <= 0 {
		interval = w.cfg.GCHelperInterval
	}
	if interval <= 0 {
		interval = time.Second
	}
	for _, rt := range []*Runtime{w.trusted, w.untrusted} {
		rt := rt
		w.helperWG.Add(1)
		go func() {
			defer w.helperWG.Done()
			if rt.trusted {
				// The trusted helper lives inside the enclave: one
				// long-running ecall hosts its scan loop.
				_ = w.enclave.Ecall(idGCHelper, func() error {
					w.helperLoop(rt, interval)
					return nil
				})
				return
			}
			w.helperLoop(rt, interval)
		}()
	}
}

// StopGCHelpers stops the helper threads and waits for them to exit.
func (w *World) StopGCHelpers() {
	if !w.helperOn {
		return
	}
	close(w.helperStop)
	w.helperWG.Wait()
	w.helperOn = false
}

func (w *World) helperLoop(rt *Runtime, interval time.Duration) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			// The helper already executes inside its hosting thread
			// (the trusted helper's long-running ecall), so it sweeps
			// directly.
			_ = w.sweep(rt) // helper degrades gracefully
		case <-w.helperStop:
			return
		}
	}
}

// SweepOnce performs one GC-helper scan for rt: dead proxies are removed
// from the weak list and their mirrors released in the opposite runtime's
// registry, via a single batched transition. Sweeping the trusted runtime
// from outside enters the enclave first, like spawning one helper scan.
func (w *World) SweepOnce(rt *Runtime) error {
	if rt == nil {
		return ErrWrongRuntime
	}
	if rt.trusted && w.enclave != nil {
		return w.enclave.Ecall(idGCHelper, func() error { return w.sweep(rt) })
	}
	return w.sweep(rt)
}

// sweep is SweepOnce's body, callable from a thread already inside the
// enclave.
func (w *World) sweep(rt *Runtime) error {
	if rt == nil {
		return ErrWrongRuntime
	}
	// SweepDead dereferences weak refs on rt's heap: hold rt's heap lock.
	rt.heapMu.Lock()
	dead, err := rt.weaks.SweepDead()
	rt.heapMu.Unlock()
	if err != nil {
		return err
	}
	rt.recordSweep(len(dead))
	if len(dead) == 0 {
		return nil
	}
	opposite := w.opposite(rt)
	if opposite == nil {
		return nil
	}
	// In batching mode the releases join the runtime's call queue: the
	// flush runs any pending relay calls first — while their target
	// mirrors are still registered — then the releases, all in one
	// batched transition.
	if w.batching && rt.queue != nil && w.enclave != nil {
		for _, hash := range dead {
			if err := rt.queue.Enqueue(boundary.Entry{ID: idGCSweep, Method: gcReleaseMethod, Hash: hash}); err != nil {
				return err
			}
		}
		return rt.queue.Flush()
	}
	release := func() error {
		// Registry releases take only shard locks; the dropped mirror
		// handles are released via the opposite runtime's heap lock by
		// the registry's releaser hook — never while rt's is held.
		for _, hash := range dead {
			if _, err := opposite.reg.Release(hash); err != nil {
				return err
			}
		}
		return nil
	}
	// The removal message crosses the enclave boundary: the trusted
	// helper ocalls out, the untrusted helper ecalls in.
	if w.enclave != nil {
		sp := w.tel.Tracer().StartRoot("gc-sweep " + rt.name)
		sp.SetBatchSize(len(dead))
		err := w.disp.InvokeSpan(!rt.trusted, idGCSweep, sp, release)
		sp.Finish(err)
		return err
	}
	return release()
}

func (w *World) opposite(rt *Runtime) *Runtime {
	if rt == w.trusted {
		return w.untrusted
	}
	return w.trusted
}

// batchRun builds rt's queue-flush callback: pack the drained batch
// into one wire frame, cross the boundary once, and run every call on
// the opposite runtime in order. Individual call errors are joined —
// one failing call does not stop the calls after it.
func (w *World) batchRun(rt *Runtime) func([]boundary.Entry) error {
	return func(entries []boundary.Entry) error {
		to := w.opposite(rt)
		if to == nil {
			return ErrWrongRuntime
		}
		// A flush is a trace root: one span for the whole coalesced
		// transition, parenting any calls its batched relays make.
		sp := w.tel.Tracer().StartRoot("batch-flush " + rt.name)
		sp.SetBatchSize(len(entries))
		if sp != nil && entries[0].EnqueuedNS != 0 {
			sp.SetQueueWait(time.Duration(time.Now().UnixNano() - entries[0].EnqueuedNS))
		}

		// Ring route first: each batched call becomes its own submission
		// entry, published back to back so the consumer drains them in
		// shared wakeups — adaptive batching without building (and MEE-
		// copying) a coalesced frame. All-or-nothing: oversized or busy
		// rings fall through to the frame path.
		if w.enclave != nil && w.disp.HasRings(to.trusted) {
			rents := make([]ring.BatchEntry, len(entries))
			for i := range entries {
				e := entries[i]
				rents[i] = ring.BatchEntry{
					ID:   e.ID,
					Need: wire.CallSize(e.Class, e.Method, e.Hash, len(e.Args)),
					Sp:   sp,
					Fill: func(slot []byte) ([]byte, error) {
						slot = wire.AppendCallHeader(slot, e.Class, e.Method, e.Hash, 0, len(e.Args))
						return append(slot, e.Args...), nil
					},
				}
			}
			if ran, rerr := w.disp.InvokeRingBatch(to.trusted, rents); ran {
				sp.Finish(rerr)
				for _, e := range entries {
					w.bufs.Put(e.Args)
				}
				return rerr
			}
		}

		calls := make([]wire.FrameCall, len(entries))
		for i, e := range entries {
			calls[i] = wire.FrameCall{Class: e.Class, Method: e.Method, Hash: e.Hash, Args: e.Args}
		}
		frame := wire.AppendFrame(w.bufs.Get(wire.FrameSize(calls)), calls)
		sp.AddMarshalBytes(len(frame))
		invoke := func() error {
			decoded, err := wire.UnmarshalFrame(frame)
			if err != nil {
				return fmt.Errorf("world: corrupt batch frame: %w", err)
			}
			var errs []error
			for _, c := range decoded {
				errs = append(errs, w.runBatchedCall(to, c, sp))
			}
			return errors.Join(errs...)
		}
		var err error
		if w.enclave != nil {
			// The frame crosses the boundary once, streaming through
			// the MEE like any marshalled argument buffer.
			w.clock.ChargeBytes(len(frame), simcfg.MEEBytesPerCycle)
			w.meeBytes.Add(uint64(len(frame)))
			err = w.disp.InvokeSpan(to.trusted, idBatch, sp, invoke)
		} else {
			err = invoke()
		}
		sp.Finish(err)
		for _, e := range entries {
			w.bufs.Put(e.Args)
		}
		w.bufs.Put(frame)
		return err
	}
}

// ringHandler builds the ring consumer callback executing submissions
// on the receiving runtime rt. req and resp alias the same slot, which
// is safe because decoding copies every argument into Values before the
// dispatch runs and the response is encoded only afterwards.
func (w *World) ringHandler(rt *Runtime) ring.Handler {
	return func(id int, req, resp []byte, sp *telemetry.Span) ([]byte, bool, error) {
		class, method, hash, flags, args, err := wire.DecodeCall(req)
		if err != nil {
			return nil, false, err
		}
		if method == gcReleaseMethod {
			_, rerr := rt.reg.Release(hash)
			return nil, false, rerr
		}
		want := flags&wire.CallWantResult != 0
		return rt.dispatchRelaySlot(class, method, hash, args, resp, want, sp)
	}
}

// runBatchedCall executes one decoded frame entry on the receiving
// runtime: a registry release from the GC sweep, or a void relay call.
// The flush span parents any nested calls the relay makes.
func (w *World) runBatchedCall(to *Runtime, c wire.FrameCall, sp *telemetry.Span) error {
	if c.Method == gcReleaseMethod {
		_, err := to.reg.Release(c.Hash)
		return err
	}
	if _, err := to.dispatchRelay(c.Class, c.Method, c.Hash, c.Args, false, sp); err != nil {
		return fmt.Errorf("world: batched call %s.%s: %w", c.Class, c.Method, err)
	}
	return nil
}

// Flush drains both runtimes' batching queues, running any pending
// result-independent calls. Errors of individual batched calls surface
// here, joined. A no-op when nothing is pending (or batching is off).
// This is also the flush-before-commit barrier the persistence layer
// runs before sealing a checkpoint: batched mutations must land before
// trusted state is captured.
func (w *World) Flush() error {
	w.stateMu.RLock()
	trusted, untrusted := w.trusted, w.untrusted
	w.stateMu.RUnlock()
	return errors.Join(w.flushQueue(untrusted), w.flushQueue(trusted))
}

func (w *World) flushQueue(rt *Runtime) error {
	if rt == nil || rt.queue == nil || rt.queue.Len() == 0 {
		return nil
	}
	// The trusted runtime's flush calls out (an ocall); from outside the
	// enclave, enter it first — like spawning one helper scan.
	if rt.trusted && w.enclave != nil && !w.enclave.InEnclave() {
		return w.enclave.Ecall(idExec, rt.queue.Flush)
	}
	return rt.queue.Flush()
}

// Close flushes pending batched calls, stops helpers and ring groups,
// and destroys the enclave. Flush errors are dropped; callers that must
// observe them (e.g. the gateway's graceful drain) use CloseErr.
func (w *World) Close() { _ = w.CloseErr() }

// CloseErr is Close with an error path: the final flush of both batching
// queues runs first and any batched-call errors it surfaces are
// returned, joined, after teardown completes.
func (w *World) CloseErr() error {
	err := w.Flush()
	w.StopGCHelpers()
	if w.disp != nil {
		w.disp.Close()
	}
	if w.enclave != nil {
		w.enclave.Destroy()
	}
	w.clock.Stop()
	return err
}

// Stats aggregates runtime statistics.
type Stats struct {
	Mode          Mode
	Cycles        int64
	Enclave       sgx.Stats
	Dispatch      DispatchStats
	TrustedHeap   heap.Stats
	UntrustedHeap heap.Stats
	Trusted       RuntimeStats
	Untrusted     RuntimeStats
	// TrustedSweeps and UntrustedSweeps report the GC helpers' observed
	// sweep cadence per runtime, so servers tuning
	// Options.GCHelperInterval can see whether mirrors are reclaimed
	// promptly.
	TrustedSweeps   SweepStats
	UntrustedSweeps SweepStats
	Shim            shim.Stats
}

// collectMetrics is the telemetry collector of the world layer: it
// absorbs the snapshot-style statistics every subsystem already keeps —
// dispatcher routing counters, batching queues, enclave transitions,
// TCS and pool occupancy, GC sweeps, registry sizes — into stable
// registry metrics at scrape time, so the producing hot paths stay
// untouched.
func (w *World) collectMetrics(reg *telemetry.Registry) {
	// The collector outlives any single enclave incarnation (it is
	// registered once, while Kill/Restart swap the world's guts), so it
	// reads under the state lock.
	w.stateMu.RLock()
	defer w.stateMu.RUnlock()
	reg.Gauge("montsalvat_world_cycles_total").Set(w.clock.Total())

	if w.disp != nil {
		ds := w.disp.Stats()
		reg.Counter("montsalvat_boundary_calls_total", "route", "full").Set(ds.FullCalls)
		reg.Counter("montsalvat_boundary_calls_total", "route", "switchless").Set(ds.SwitchlessCalls)
		rs := w.disp.RingStats()
		reg.Counter("montsalvat_boundary_calls_total", "route", "ring").Set(rs.RingCalls)
		reg.Counter("montsalvat_boundary_calls_total", "route", "ring-fallback").Set(rs.RingFallbacks)
		reg.Counter("montsalvat_boundary_calls_total", "route", "ring-oversize").Set(rs.RingOversize)
	}
	for dir, g := range map[string]*ring.Group{"ecall": w.erings, "ocall": w.orings} {
		if g == nil {
			continue
		}
		gs := g.Stats()
		reg.Counter("montsalvat_ring_submits_total", "dir", dir).Set(gs.Submits)
		reg.Counter("montsalvat_ring_doorbells_total", "dir", dir).Set(gs.Doorbells)
		reg.Counter("montsalvat_ring_stalls_total", "dir", dir).Set(gs.Stalls)
		reg.Counter("montsalvat_ring_overflows_total", "dir", dir).Set(gs.Overflows)
		reg.Counter("montsalvat_ring_sealed_bytes_total", "dir", dir).Set(gs.SealedBytes)
		reg.Gauge("montsalvat_ring_occupancy", "dir", dir).Set(int64(g.Occupancy()))
	}
	if w.bufs != nil {
		ps := w.bufs.Stats()
		reg.Counter("montsalvat_bufpool_gets_total", "result", "hit").Set(ps.Hits)
		reg.Counter("montsalvat_bufpool_gets_total", "result", "miss").Set(ps.Misses)
		// Miss rate in basis points (1/100 of a percent): gauges are
		// integral.
		reg.Gauge("montsalvat_bufpool_miss_rate_bps").Set(int64(ps.MissRate() * 10000))
	}

	var flushes, batched uint64
	for _, rt := range []*Runtime{w.trusted, w.untrusted} {
		if rt != nil && rt.queue != nil {
			qs := rt.queue.Stats()
			flushes += qs.Flushes
			batched += qs.BatchedCalls
		}
	}
	reg.Counter("montsalvat_boundary_batch_flushes_total").Set(flushes)
	reg.Counter("montsalvat_boundary_batched_calls_total").Set(batched)

	if w.enclave != nil {
		es := w.enclave.Stats()
		reg.Counter("montsalvat_sgx_ecalls_total").Set(es.Ecalls)
		reg.Counter("montsalvat_sgx_ocalls_total").Set(es.Ocalls)
		reg.Gauge("montsalvat_sgx_heap_bytes_in_use").Set(int64(es.HeapBytesInUse))
		reg.Gauge("montsalvat_sgx_tcs_in_use").Set(int64(w.enclave.TCSInUse()))
		reg.Gauge("montsalvat_sgx_tcs_cap").Set(int64(w.enclave.TCSCap()))
	}

	for _, rt := range []*Runtime{w.trusted, w.untrusted} {
		if rt == nil {
			continue
		}
		ss := rt.SweepStats()
		reg.Counter("montsalvat_gc_sweeps_total", "runtime", rt.name).Set(ss.Sweeps)
		reg.Counter("montsalvat_gc_released_total", "runtime", rt.name).Set(ss.Released)
		rs := rt.Stats()
		reg.Counter("montsalvat_world_remote_calls_total", "runtime", rt.name).Set(rs.RemoteCallsOut)
		reg.Counter("montsalvat_world_proxies_created_total", "runtime", rt.name).Set(rs.ProxiesCreated)
		reg.Gauge("montsalvat_world_registry_size", "runtime", rt.name).Set(int64(rs.RegistrySize))
		reg.Gauge("montsalvat_world_weak_list_len", "runtime", rt.name).Set(int64(rs.WeakListLen))
		reg.Gauge("montsalvat_world_object_table_len", "runtime", rt.name).Set(int64(rs.ObjectTableLen))
		// Shard contention of the concurrent crossing engine: lock
		// acquisitions that found a registry/object-table shard held.
		reg.Gauge("montsalvat_registry_shard_waits", "runtime", rt.name).Set(int64(rt.reg.Waits()))
		reg.Gauge("montsalvat_objtable_shard_waits", "runtime", rt.name).Set(int64(rt.table.waits.Load()))
	}
}

// Stats returns a snapshot of all counters.
func (w *World) Stats() Stats {
	w.stateMu.RLock()
	defer w.stateMu.RUnlock()
	s := Stats{Mode: w.mode, Cycles: w.clock.Total(), Dispatch: w.DispatchStats()}
	if w.enclave != nil {
		s.Enclave = w.enclave.Stats()
	}
	if w.trusted != nil {
		s.TrustedHeap = w.trusted.HeapStats()
		s.Trusted = w.trusted.Stats()
		s.TrustedSweeps = w.trusted.SweepStats()
		if ts, ok := w.trusted.fs.(*shim.TrustedShim); ok {
			s.Shim = ts.Stats()
		}
	}
	if w.untrusted != nil {
		s.UntrustedHeap = w.untrusted.HeapStats()
		s.Untrusted = w.untrusted.Stats()
		s.UntrustedSweeps = w.untrusted.SweepStats()
	}
	return s
}

// LiveObjects folds the live strong-entry count of both runtimes'
// object tables plus their tracked proxy weak refs — the retention the
// crossing engine holds on behalf of frames and proxies. At quiescence
// (queues flushed, sweeps drained, no frames active) the count is a
// pure function of the reachable cross-boundary objects, which is what
// the orderly explorer's refcount-drain invariant checks. Returns 0
// while killed.
func (w *World) LiveObjects() int {
	w.stateMu.RLock()
	defer w.stateMu.RUnlock()
	n := 0
	for _, rt := range []*Runtime{w.trusted, w.untrusted} {
		if rt == nil {
			continue
		}
		n += rt.table.len()
		n += rt.weaks.Len()
	}
	return n
}

// PoolStats snapshots the marshal-buffer pool's hit/miss counters.
func (w *World) PoolStats() boundary.BufPoolStats {
	if w.bufs == nil {
		return boundary.BufPoolStats{}
	}
	return w.bufs.Stats()
}

// ResetPoolStats zeroes the marshal-buffer pool's hit/miss counters
// while keeping the pooled buffers warm, so a benchmark phase measures
// its own pool behaviour rather than inheriting boot traffic.
func (w *World) ResetPoolStats() {
	if w.bufs != nil {
		w.bufs.ResetStats()
	}
}
