package world

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"montsalvat/internal/boundary"
	"montsalvat/internal/classmodel"
	"montsalvat/internal/edl"
	"montsalvat/internal/heap"
	"montsalvat/internal/image"
	"montsalvat/internal/isolate"
	"montsalvat/internal/lockrank"
	"montsalvat/internal/registry"
	"montsalvat/internal/shim"
	"montsalvat/internal/simcfg"
	"montsalvat/internal/telemetry"
	"montsalvat/internal/transform"
	"montsalvat/internal/wire"
)

// maxNeutralDepth bounds recursive by-value serialization of neutral
// objects (cyclic neutral graphs cannot be copied by value).
const maxNeutralDepth = 32

// RuntimeStats counts per-runtime activity.
type RuntimeStats struct {
	// RemoteCallsOut counts proxy invocations leaving this runtime.
	RemoteCallsOut uint64
	// ProxiesCreated counts proxy instances materialised locally.
	ProxiesCreated uint64
	// MarshalledBytes counts serialized argument/result traffic.
	MarshalledBytes uint64
	// RegistrySize and WeakListLen snapshot the GC-sync structures.
	RegistrySize int
	WeakListLen  int
	// ObjectTableLen snapshots the live entries of the sharded object
	// table (frames and pins currently retaining objects).
	ObjectTableLen int
}

// SweepStats describes the GC helper's sweep activity over one runtime's
// weak list: how often it ran, how much it reclaimed, and when it last
// fired — the observability needed to tune Options.GCHelperInterval
// under many concurrent gateway sessions.
type SweepStats struct {
	// Sweeps counts completed weak-list scans (helper ticks plus
	// explicit SweepOnce calls).
	Sweeps uint64
	// Released is the total number of dead proxies whose mirrors were
	// released in the opposite registry.
	Released uint64
	// LastReleased is the dead-proxy count of the most recent sweep.
	LastReleased int
	// LastSweep is when the most recent sweep completed (zero until the
	// first sweep).
	LastSweep time.Time
}

// Runtime is one side of the partitioned application: an isolate loaded
// from a native image plus the RMI bookkeeping of §5.2/§5.5.
type Runtime struct {
	w       *World
	name    string
	trusted bool
	img     *image.Image
	iso     *isolate.Isolate
	reg     *registry.Registry // mirrors for proxies living in the opposite runtime
	weaks   *registry.WeakList // weak refs to proxies living here
	fs      shim.FS
	// queue batches this runtime's outbound result-independent calls
	// (nil unless partitioned; active only with Config.Batching).
	queue *boundary.Queue

	// heapMu is the narrow isolate/heap lock of the concurrent crossing
	// engine: it serialises actual heap mutation (allocation — which may
	// trigger a collection — field access, GC, weak dereference) and
	// nothing else. It is never held across a boundary transition, while
	// calling into the opposite runtime, or around a table/registry
	// mutation. Handles are GC-stable and may cross heapMu critical
	// sections; raw heap addresses may not (a collection between
	// sections moves objects).
	heapMu lockrank.Mutex
	// table is the sharded object table: identity hash → refcounted
	// strong handle, retained and released by activation frames.
	table *objTable
	// pinMu guards the permanent-root frame (static-field analog);
	// outermost in the lock order.
	pinMu lockrank.Mutex
	pins  *frame

	remoteOut  atomic.Uint64
	proxiesNew atomic.Uint64
	marshalled atomic.Uint64

	// sweepMu guards the helper-sweep statistics (the GC helper and
	// stats readers race).
	sweepMu sync.Mutex
	sweeps  SweepStats
}

// recordSweep accounts one completed weak-list sweep and the number of
// dead proxies it found.
func (rt *Runtime) recordSweep(dead int) {
	rt.sweepMu.Lock()
	rt.sweeps.Sweeps++
	rt.sweeps.Released += uint64(dead)
	rt.sweeps.LastReleased = dead
	rt.sweeps.LastSweep = time.Now()
	rt.sweepMu.Unlock()
}

// SweepStats snapshots the runtime's GC-helper sweep statistics.
func (rt *Runtime) SweepStats() SweepStats {
	rt.sweepMu.Lock()
	defer rt.sweepMu.Unlock()
	return rt.sweeps
}

func newRuntime(w *World, name string, trusted bool, img *image.Image, h *heap.Heap) (*Runtime, error) {
	iso, err := isolate.New(0, h, w.nextHash)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{
		w:       w,
		name:    name,
		trusted: trusted,
		img:     img,
		iso:     iso,
		reg:     registry.New(h),
		weaks:   registry.NewWeakList(h),
		table:   newObjTable(),
		pins:    &frame{},
	}
	rt.pinMu.SetRank(lockrank.RankWorldPin, "world."+name+".pinMu")
	rt.heapMu.SetRank(lockrank.RankWorldHeap, "world."+name+".heapMu")
	// Registry strong-handle drops run outside every registry shard lock
	// (the registry defers them), so taking the heap lock here cannot
	// deadlock against the shard locks. Callers therefore must not hold
	// heapMu across mutating registry calls (Export/Release).
	rt.reg.SetReleaser(func(hd heap.Handle) error {
		rt.heapMu.Lock()
		defer rt.heapMu.Unlock()
		return rt.iso.Release(hd)
	})
	for _, c := range img.Classes() {
		if classmodel.IsBuiltin(c.Name) {
			continue
		}
		id, err := img.ClassID(c.Name)
		if err != nil {
			return nil, err
		}
		if err := iso.RegisterClass(c, id); err != nil {
			return nil, err
		}
	}
	return rt, nil
}

// Name returns the runtime name ("trusted" or "untrusted").
func (rt *Runtime) Name() string { return rt.name }

// TrustedSide reports whether the runtime executes inside the enclave.
func (rt *Runtime) TrustedSide() bool { return rt.trusted }

// Image returns the loaded native image.
func (rt *Runtime) Image() *image.Image { return rt.img }

// Registry returns the runtime's mirror–proxy registry.
func (rt *Runtime) Registry() *registry.Registry { return rt.reg }

// WeakList returns the runtime's proxy weak-reference list.
func (rt *Runtime) WeakList() *registry.WeakList { return rt.weaks }

// Collect forces a stop-and-copy GC cycle on the runtime's heap.
func (rt *Runtime) Collect() error {
	rt.heapMu.Lock()
	defer rt.heapMu.Unlock()
	return rt.iso.Collect()
}

// HeapStats snapshots the heap statistics.
func (rt *Runtime) HeapStats() heap.Stats {
	rt.heapMu.Lock()
	defer rt.heapMu.Unlock()
	return rt.iso.Heap().Stats()
}

// Stats snapshots the runtime counters.
func (rt *Runtime) Stats() RuntimeStats {
	return RuntimeStats{
		RemoteCallsOut:  rt.remoteOut.Load(),
		ProxiesCreated:  rt.proxiesNew.Load(),
		MarshalledBytes: rt.marshalled.Load(),
		RegistrySize:    rt.reg.Size(),
		WeakListLen:     rt.weaks.Len(),
		ObjectTableLen:  rt.table.len(),
	}
}

// ObjectTableLen reports the number of live object-table entries — zero
// once every frame and pin retaining objects has been released.
func (rt *Runtime) ObjectTableLen() int { return rt.table.len() }

// Pin adds a permanent strong root for the object behind a ref — the
// analog of storing it in a static field. The object must currently be
// live in this runtime.
func (rt *Runtime) Pin(v wire.Value) error {
	_, hash, ok := v.AsRef()
	if !ok {
		return ErrNotRef
	}
	rt.pinMu.Lock()
	defer rt.pinMu.Unlock()
	_, err := rt.resolve(rt.pins, hash)
	return err
}

// Unpin removes one permanent retention added by Pin.
func (rt *Runtime) Unpin(v wire.Value) error {
	_, hash, ok := v.AsRef()
	if !ok {
		return ErrNotRef
	}
	rt.pinMu.Lock()
	defer rt.pinMu.Unlock()
	for i, h := range rt.pins.owned {
		if h != hash {
			continue
		}
		rt.pins.owned = append(rt.pins.owned[:i], rt.pins.owned[i+1:]...)
		if drop := rt.table.release(hash); drop != 0 {
			rt.heapMu.Lock()
			_ = rt.iso.Release(drop)
			rt.heapMu.Unlock()
		}
		return nil
	}
	return fmt.Errorf("%w: %d not pinned", ErrNoSuchObject, hash)
}

// ---- frames ----------------------------------------------------------

// frame tracks the object-table retentions of one method activation (the
// stand-in for stack/register roots in a real VM). It also carries the
// activation's trace span: a relay executing a sampled cross-boundary
// call stores the call's span here, so proxy invocations the body makes
// become child spans of the same trace — including across the resident
// ring consumers, which run the handler on their own goroutines. Nil
// when the chain is unsampled or telemetry is off.
type frame struct {
	owned []int64
	span  *telemetry.Span
}

// own records a table retention taken on behalf of this frame. A frame
// belongs to exactly one activation, so no lock guards the slice.
func (fr *frame) own(hash int64) { fr.owned = append(fr.owned, hash) }

func (rt *Runtime) newFrame() *frame { return &frame{} }

// releaseFrame drops the frame's retentions; entries reaching zero lose
// their strong handle — and leave the table eagerly — making the objects
// collectable. The handle drops batch into one heap critical section.
func (rt *Runtime) releaseFrame(fr *frame) {
	var drops []heap.Handle
	for _, hash := range fr.owned {
		if d := rt.table.release(hash); d != 0 {
			drops = append(drops, d)
		}
	}
	fr.owned = nil
	if len(drops) == 0 {
		return
	}
	rt.heapMu.Lock()
	for _, d := range drops {
		// Best effort: a released handle only pins memory.
		_ = rt.iso.Release(d)
	}
	rt.heapMu.Unlock()
}

// adoptHandle installs a freshly created strong handle into the object
// table and retains it in fr. When a racing goroutine adopted the hash
// first, the table keeps the established handle and the redundant fresh
// one is dropped here, under the heap lock, outside all table locks.
func (rt *Runtime) adoptHandle(fr *frame, hash int64, fresh heap.Handle) (heap.Handle, error) {
	kept, dup := rt.table.adopt(hash, fresh)
	if dup != 0 {
		rt.heapMu.Lock()
		err := rt.iso.Release(dup)
		rt.heapMu.Unlock()
		if err != nil {
			return 0, err
		}
	}
	fr.own(hash)
	return kept, nil
}

// resolve finds a live local object for hash, looking through the object
// table, the mirror–proxy registry, and the weak list (canonical
// proxies). The returned handle is retained in fr. The slow path
// materialises a fresh handle under the heap lock, then adopts it —
// losing an adoption race only costs the redundant handle.
func (rt *Runtime) resolve(fr *frame, hash int64) (heap.Handle, error) {
	if h, ok := rt.table.retain(hash); ok {
		fr.own(hash)
		return h, nil
	}
	rt.heapMu.Lock()
	var (
		fresh heap.Handle
		err   error
	)
	// reg.Resolve is a read — it never triggers the registry's releaser
	// hook — so calling it under heapMu preserves the lock order.
	if regHandle, ok := rt.reg.Resolve(hash); ok {
		var addr heap.Addr
		addr, err = rt.iso.Heap().Deref(regHandle)
		if err == nil {
			fresh, err = rt.iso.HandleAt(addr)
		}
	} else if addr, ok := rt.weaks.LiveHash(hash); ok {
		fresh, err = rt.iso.HandleAt(addr)
	}
	rt.heapMu.Unlock()
	if err != nil {
		return 0, err
	}
	if fresh == 0 {
		return 0, fmt.Errorf("%w: %d", ErrNoSuchObject, hash)
	}
	return rt.adoptHandle(fr, hash, fresh)
}

// resolveRef resolves a ref value to a live handle retained in fr.
func (rt *Runtime) resolveRef(fr *frame, v wire.Value) (heap.Handle, error) {
	_, hash, ok := v.AsRef()
	if !ok {
		return 0, fmt.Errorf("%w: got %s", ErrNotRef, v.Kind())
	}
	return rt.resolve(fr, hash)
}

// classDecl returns the image declaration of a ref's class.
func (rt *Runtime) classDecl(class string) (*classmodel.Class, error) {
	c, ok := rt.img.Program().Class(class)
	if !ok {
		return nil, fmt.Errorf("%w: class %s", image.ErrClosedWorld, class)
	}
	return c, nil
}

// ---- marshalling across the boundary ---------------------------------

// marshalOut prepares an argument/result vector for the boundary
// crossing: neutral values are serialized; references to local concrete
// annotated objects are exported into the registry so the opposite
// runtime may hold proxies to them; references to local proxies cross as
// their bare hash (the opposite runtime resolves its mirror).
func (rt *Runtime) marshalOut(fr *frame, vals []wire.Value) ([]byte, error) {
	out, err := rt.marshalVals(fr, vals)
	if err != nil {
		return nil, err
	}
	return rt.encodeVals(out), nil
}

// marshalVals is marshalOut's value pass — registry exports, proxy-hash
// substitution and the serialization charge — without committing to an
// output buffer, so the ring path can encode the prepared vector
// straight into a slot while the frame path uses a pooled buffer.
func (rt *Runtime) marshalVals(fr *frame, vals []wire.Value) ([]wire.Value, error) {
	out := make([]wire.Value, len(vals))
	for i, v := range vals {
		cv, err := rt.marshalValue(fr, v, 0)
		if err != nil {
			return nil, err
		}
		out[i] = cv
	}
	rt.chargeSerialization(out, simcfg.SerializeCyclesPerValue)
	return out, nil
}

// encodeVals encodes a prepared value vector into a pooled buffer.
// Size-precompute plus a pooled buffer: the hot path neither grows nor
// allocates. Callers recycle the buffer with w.bufs.Put once the
// receiver has decoded it (decoding copies).
func (rt *Runtime) encodeVals(vals []wire.Value) []byte {
	buf := wire.AppendValues(rt.w.bufs.Get(wire.SizeValues(vals)), vals)
	rt.marshalled.Add(uint64(len(buf)))
	return buf
}

// chargeSerialization charges the Java-serialization cost of a value
// vector: perCycles per leaf element, multiplied when performed inside
// the enclave (Fig. 4b's in-vs-out asymmetry).
func (rt *Runtime) chargeSerialization(vals []wire.Value, perCycles int64) {
	leaves := 0
	for _, v := range vals {
		leaves += leafCount(v)
	}
	cost := float64(leaves) * float64(perCycles)
	if rt.trusted {
		cost *= simcfg.EnclaveSerializeFactor
	}
	rt.w.clock.Charge(int64(cost))
}

// leafCount counts the scalar elements of a value tree.
func leafCount(v wire.Value) int {
	switch v.Kind() {
	case wire.KindList:
		elems, _ := v.AsList()
		n := 0
		for _, e := range elems {
			n += leafCount(e)
		}
		return n
	case wire.KindMap:
		pairs, _ := v.AsMap()
		n := 0
		for _, p := range pairs {
			n += leafCount(p.Val)
		}
		return n
	default:
		return 1
	}
}

func (rt *Runtime) marshalValue(fr *frame, v wire.Value, depth int) (wire.Value, error) {
	if depth > maxNeutralDepth {
		return wire.Value{}, errors.New("world: neutral value too deep (cycle?)")
	}
	switch v.Kind() {
	case wire.KindList:
		elems, _ := v.AsList()
		for i, e := range elems {
			ce, err := rt.marshalValue(fr, e, depth+1)
			if err != nil {
				return wire.Value{}, err
			}
			elems[i] = ce
		}
		return wire.List(elems...), nil
	case wire.KindMap:
		pairs, _ := v.AsMap()
		for i, p := range pairs {
			cv, err := rt.marshalValue(fr, p.Val, depth+1)
			if err != nil {
				return wire.Value{}, err
			}
			pairs[i].Val = cv
		}
		return wire.Map(pairs...), nil
	case wire.KindRef:
		return rt.marshalRef(fr, v)
	default:
		return v, nil
	}
}

// marshalRef handles an object reference crossing the boundary.
func (rt *Runtime) marshalRef(fr *frame, v wire.Value) (wire.Value, error) {
	class, hash, _ := v.AsRef()
	if classmodel.IsBuiltin(class) {
		return wire.Value{}, fmt.Errorf("%w: %s#%d", ErrNeutralByValue, class, hash)
	}
	decl, err := rt.classDecl(class)
	if err != nil {
		return wire.Value{}, err
	}
	if decl.Proxy {
		// A proxy crossing back to its object's home runtime: the bare
		// hash suffices; the mirror is in the opposite registry.
		return v, nil
	}
	switch decl.Ann {
	case classmodel.Neutral:
		return wire.Value{}, fmt.Errorf("%w: neutral class %s", ErrNeutralByValue, class)
	default:
		// A local concrete annotated object leaves the runtime: export
		// a strong reference into OUR registry so the opposite runtime's
		// new proxy keeps the mirror alive (§5.2). The frame's retention
		// keeps h valid between the critical sections; the address is
		// derefed and re-handled inside one, so no collection can move
		// the object in between.
		h, err := rt.resolve(fr, hash)
		if err != nil {
			return wire.Value{}, err
		}
		rt.heapMu.Lock()
		addr, err := rt.iso.Heap().Deref(h)
		var regHandle heap.Handle
		if err == nil {
			regHandle, err = rt.iso.HandleAt(addr)
		}
		rt.heapMu.Unlock()
		if err != nil {
			return wire.Value{}, err
		}
		// Export outside heapMu: a duplicate export triggers the
		// registry's releaser, which takes heapMu itself.
		if err := rt.reg.Export(hash, regHandle); err != nil {
			return wire.Value{}, err
		}
		return v, nil
	}
}

// unmarshalIn decodes an incoming argument/result vector, materialising
// local representatives for every reference: mirrors are resolved through
// the registry, and refs to remote objects become (or reuse) local proxy
// instances, weak-tracked for GC synchronisation.
func (rt *Runtime) unmarshalIn(fr *frame, buf []byte) ([]wire.Value, error) {
	vals, err := wire.UnmarshalList(buf)
	if err != nil {
		return nil, fmt.Errorf("world: corrupt boundary buffer: %w", err)
	}
	rt.chargeSerialization(vals, simcfg.DeserializeCyclesPerValue)
	rt.marshalled.Add(uint64(len(buf)))
	for i, v := range vals {
		lv, err := rt.localiseValue(fr, v, 0)
		if err != nil {
			return nil, err
		}
		vals[i] = lv
	}
	return vals, nil
}

func (rt *Runtime) localiseValue(fr *frame, v wire.Value, depth int) (wire.Value, error) {
	if depth > maxNeutralDepth {
		return wire.Value{}, errors.New("world: neutral value too deep (cycle?)")
	}
	switch v.Kind() {
	case wire.KindList:
		elems, _ := v.AsList()
		for i, e := range elems {
			le, err := rt.localiseValue(fr, e, depth+1)
			if err != nil {
				return wire.Value{}, err
			}
			elems[i] = le
		}
		return wire.List(elems...), nil
	case wire.KindMap:
		pairs, _ := v.AsMap()
		for i, p := range pairs {
			lv, err := rt.localiseValue(fr, p.Val, depth+1)
			if err != nil {
				return wire.Value{}, err
			}
			pairs[i].Val = lv
		}
		return wire.Map(pairs...), nil
	case wire.KindRef:
		if err := rt.localiseRef(fr, v); err != nil {
			return wire.Value{}, err
		}
		return v, nil
	default:
		return v, nil
	}
}

// localiseRef ensures a live local object exists for an incoming ref.
// It never touches the opposite runtime while holding the local heap
// lock (lock-order discipline: at most one runtime's heap lock at a
// time — the duplicate-export release below takes the opposite one via
// the registry's releaser hook).
func (rt *Runtime) localiseRef(fr *frame, v wire.Value) error {
	class, hash, _ := v.AsRef()
	decl, err := rt.classDecl(class)
	if err != nil {
		return err
	}

	if !decl.Proxy {
		// The object lives here: it must be a registered mirror (or an
		// already-known local object).
		if _, err := rt.resolve(fr, hash); err != nil {
			return fmt.Errorf("%w (class %s, hash %d)", ErrStaleMirror, class, hash)
		}
		return nil
	}

	// The ref names a remote object: reuse the canonical live proxy if
	// one exists, otherwise materialise a new proxy instance. Two
	// goroutines importing the same hash at once may both materialise;
	// the adoption race keeps one canonical proxy, the loser's becomes
	// garbage and its sender export is reclaimed by a later sweep.
	dropDuplicateExport := false
	if _, ok := rt.table.retain(hash); ok {
		fr.own(hash)
		dropDuplicateExport = true
	} else {
		rt.heapMu.Lock()
		var fresh heap.Handle
		addr, live := rt.weaks.LiveHash(hash)
		if live {
			fresh, err = rt.iso.HandleAt(addr)
		}
		rt.heapMu.Unlock()
		if err != nil {
			return err
		}
		switch {
		case live:
			if _, err := rt.adoptHandle(fr, hash, fresh); err != nil {
				return err
			}
			dropDuplicateExport = true
		default:
			if err := rt.newProxy(fr, class, hash); err != nil {
				return err
			}
		}
	}
	if dropDuplicateExport {
		// A live local representative already holds a registry export;
		// drop the duplicate export made by the sender.
		if opp := rt.w.opposite(rt); opp != nil {
			if _, rerr := opp.reg.Release(hash); rerr != nil {
				return rerr
			}
		}
	}
	return nil
}

// newProxy materialises a proxy instance for a remote object and
// weak-tracks it.
func (rt *Runtime) newProxy(fr *frame, class string, hash int64) error {
	rt.heapMu.Lock()
	h, err := rt.iso.NewObject(class, hash)
	var w heap.WeakRef
	if err == nil {
		w, err = rt.iso.NewWeak(h)
	}
	rt.heapMu.Unlock()
	if err != nil {
		return err
	}
	rt.weaks.Track(w, hash)
	rt.proxiesNew.Add(1)
	_, err = rt.adoptHandle(fr, hash, h)
	return err
}

// ---- dispatch ---------------------------------------------------------

// dispatch runs a method body locally. self is a ref (or null for static
// methods); refs in args must already be live locally. Refs inside the
// result are re-retained into adoptInto (when non-nil) before the callee
// frame is released, so they stay live for the caller.
func (rt *Runtime) dispatch(ref classmodel.MethodRef, self wire.Value, args []wire.Value, adoptInto *frame) (wire.Value, error) {
	_, m, err := rt.img.Lookup(ref)
	if err != nil {
		return wire.Value{}, err
	}
	if m.Body == nil {
		return wire.Value{}, fmt.Errorf("world: method %s has no body (abstract or runtime-native)", ref)
	}
	if len(m.Params) != len(args) {
		return wire.Value{}, fmt.Errorf("%w: %s wants %d args, got %d", ErrBadArity, ref, len(m.Params), len(args))
	}
	rt.w.clock.Charge(simcfg.LocalCallCycles)
	fr := rt.newFrame()
	if adoptInto != nil {
		fr.span = adoptInto.span
	}
	defer rt.releaseFrame(fr)
	// Retain self and ref arguments for the duration of the activation.
	for _, v := range append([]wire.Value{self}, args...) {
		if v.Kind() == wire.KindRef {
			if _, err := rt.resolveRef(fr, v); err != nil {
				return wire.Value{}, err
			}
		}
	}
	e := &env{rt: rt, fr: fr}
	result, err := m.Body(e, self, args)
	if err != nil {
		return wire.Value{}, fmt.Errorf("%s: %w", ref, err)
	}
	if adoptInto != nil {
		if err := rt.adoptResult(adoptInto, result); err != nil {
			return wire.Value{}, err
		}
	}
	return result, nil
}

// adoptResult re-retains any refs inside a callee's result into the
// caller's frame, so they survive the callee frame release.
func (rt *Runtime) adoptResult(fr *frame, v wire.Value) error {
	switch v.Kind() {
	case wire.KindRef:
		_, err := rt.resolveRef(fr, v)
		return err
	case wire.KindList:
		elems, _ := v.AsList()
		for _, e := range elems {
			if err := rt.adoptResult(fr, e); err != nil {
				return err
			}
		}
	case wire.KindMap:
		pairs, _ := v.AsMap()
		for _, p := range pairs {
			if err := rt.adoptResult(fr, p.Val); err != nil {
				return err
			}
		}
	}
	return nil
}

// remoteCall performs a proxy invocation: marshal, transition through the
// enclave boundary, dispatch the relay in the opposite runtime, and
// localise the result (§5.2).
func (rt *Runtime) remoteCall(fr *frame, class, method string, hash int64, args []wire.Value) (wire.Value, error) {
	w := rt.w
	to := w.opposite(rt)
	if to == nil {
		return wire.Value{}, fmt.Errorf("%w: no opposite runtime for remote call", ErrWrongRuntime)
	}
	relayName := transform.RelayName(method)
	dir := edl.Ocall
	if to.trusted {
		dir = edl.Ecall
	}
	routine, ok := w.iface.Lookup(dir, class, relayName)
	if !ok {
		return wire.Value{}, fmt.Errorf("%w: no edge routine for %s.%s", image.ErrClosedWorld, class, relayName)
	}

	vals, err := rt.marshalVals(fr, args)
	if err != nil {
		return wire.Value{}, err
	}

	if rt.queue != nil {
		// Result-independent calls (void-returning relays) are queued
		// and coalesced into one batched transition; the caller observes
		// null immediately and any call error at the flush.
		if w.batching && !routine.ReturnsValue {
			rt.remoteOut.Add(1)
			return wire.Null(), rt.queue.Enqueue(boundary.Entry{ID: routine.ID, Class: class, Method: relayName, Hash: hash, Args: rt.encodeVals(vals)})
		}
		// A result-dependent call must observe the effects of every
		// queued call: flush first.
		if err := rt.queue.Flush(); err != nil {
			return wire.Value{}, fmt.Errorf("world: flushing batched calls before %s.%s: %w", class, relayName, err)
		}
	}

	// Start the call's trace span: a child when the current activation
	// is already part of a sampled chain (nested ocall under an ecall
	// relay), otherwise a freshly sampled root. Nil in the common case.
	var sp *telemetry.Span
	if tracer := w.tel.Tracer(); tracer != nil {
		name := "relay " + class + "." + relayName
		if fr.span != nil {
			sp = tracer.StartChild(fr.span, name)
		} else {
			sp = tracer.StartRoot(name)
		}
	}

	// Ring route first: encode the call straight into a shared slot
	// (zero intermediate copies, in-place crypto) with the opened
	// response decoded in place. Oversized, busy or ring-less calls fall
	// through to the frame path below.
	if w.enclave != nil && w.disp.HasRings(dir == edl.Ecall) {
		argsLen := wire.SizeValues(vals)
		need := wire.CallSize(class, relayName, hash, argsLen)
		var (
			results []wire.Value
			respLen int
		)
		fill := func(slot []byte) ([]byte, error) {
			slot = wire.AppendCallHeader(slot, class, relayName, hash, wire.CallWantResult, argsLen)
			return wire.AppendValues(slot, vals), nil
		}
		done := func(resp []byte) error {
			respLen = len(resp)
			var derr error
			results, derr = rt.unmarshalIn(fr, resp)
			return derr
		}
		ran, rerr := w.disp.InvokeRing(dir == edl.Ecall, routine.ID, need, sp, fill, done)
		if ran {
			rt.marshalled.Add(uint64(need))
			sp.AddMarshalBytes(need + respLen)
			sp.Finish(rerr)
			w.hMarshal.Observe(int64(need + respLen))
			if rerr != nil {
				return wire.Value{}, rerr
			}
			rt.remoteOut.Add(1)
			if len(results) != 1 {
				return wire.Value{}, fmt.Errorf("world: relay %s.%s returned %d values", class, relayName, len(results))
			}
			return results[0], nil
		}
	}

	argBuf := rt.encodeVals(vals)
	sp.AddMarshalBytes(len(argBuf))

	var resultBuf []byte
	invoke := func() error {
		var rerr error
		resultBuf, rerr = to.dispatchRelay(class, relayName, hash, argBuf, true, sp)
		return rerr
	}
	if w.enclave != nil {
		// Copying the argument and result buffers across the boundary
		// streams them through the MEE.
		w.clock.ChargeBytes(len(argBuf), simcfg.MEEBytesPerCycle)
		w.meeBytes.Add(uint64(len(argBuf)))
		err = w.disp.InvokeSpan(dir == edl.Ecall, routine.ID, sp, invoke)
		if err == nil {
			w.clock.ChargeBytes(len(resultBuf), simcfg.MEEBytesPerCycle)
			w.meeBytes.Add(uint64(len(resultBuf)))
		}
	} else {
		err = invoke()
	}
	sp.AddMarshalBytes(len(resultBuf))
	sp.Finish(err)
	w.hMarshal.Observe(int64(len(argBuf) + len(resultBuf)))
	w.bufs.Put(argBuf)
	if err != nil {
		return wire.Value{}, err
	}
	rt.remoteOut.Add(1)

	results, err := rt.unmarshalIn(fr, resultBuf)
	w.bufs.Put(resultBuf)
	if err != nil {
		return wire.Value{}, err
	}
	if len(results) != 1 {
		return wire.Value{}, fmt.Errorf("world: relay %s.%s returned %d values", class, relayName, len(results))
	}
	return results[0], nil
}

// dispatchRelay executes a relay method natively (the generated
// @CEntryPoint wrappers of Listing 4): constructor relays instantiate the
// mirror and register it; instance relays resolve the mirror in the
// registry and invoke the concrete method. Batched void calls pass
// wantResult=false to skip serializing (and charging for) the result.
// parent is the caller's trace span (nil when unsampled); it is threaded
// into the relay's frame so calls the body makes back across the
// boundary become children of the same trace.
func (rt *Runtime) dispatchRelay(class, relayName string, hash int64, argBuf []byte, wantResult bool, parent *telemetry.Span) ([]byte, error) {
	if !wantResult {
		return nil, rt.relayCore(class, relayName, hash, argBuf, parent, nil)
	}
	var out []byte
	err := rt.relayCore(class, relayName, hash, argBuf, parent, func(fr *frame, result wire.Value) error {
		var merr error
		out, merr = rt.marshalOut(fr, []wire.Value{result})
		return merr
	})
	return out, err
}

// dispatchRelaySlot is dispatchRelay for the ring data plane: the relay
// result is marshalled directly into the response slot (the returned
// buffer aliases slot), or — when it does not fit — into a fresh
// overflow buffer reported with overflow=true, which the ring producer
// side charges at MEE rate as a plain copy.
func (rt *Runtime) dispatchRelaySlot(class, relayName string, hash int64, argBuf, slot []byte, wantResult bool, parent *telemetry.Span) (out []byte, overflow bool, err error) {
	if !wantResult {
		return nil, false, rt.relayCore(class, relayName, hash, argBuf, parent, nil)
	}
	err = rt.relayCore(class, relayName, hash, argBuf, parent, func(fr *frame, result wire.Value) error {
		vals, merr := rt.marshalVals(fr, []wire.Value{result})
		if merr != nil {
			return merr
		}
		enc, serr := wire.AppendValuesSlot(slot, vals)
		if serr == nil {
			rt.marshalled.Add(uint64(len(enc)))
			out = enc
			return nil
		}
		overflow = true
		out = wire.AppendValues(make([]byte, 0, wire.SizeValues(vals)), vals)
		rt.marshalled.Add(uint64(len(out)))
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	return out, overflow, nil
}

// relayCore is the shared body of the relay entry points: look up the
// relay, decode the arguments, run the constructor or instance
// dispatch, and hand the raw result to finish (nil for void calls)
// before the relay frame is released — result marshalling must happen
// while the frame still retains the exports.
func (rt *Runtime) relayCore(class, relayName string, hash int64, argBuf []byte, parent *telemetry.Span, finish func(fr *frame, result wire.Value) error) error {
	_, relay, err := rt.img.Lookup(classmodel.MethodRef{Class: class, Method: relayName})
	if err != nil {
		return err
	}
	if !relay.Relay {
		return fmt.Errorf("world: %s.%s is not a relay method", class, relayName)
	}
	target := relay.RelayFor

	fr := rt.newFrame()
	fr.span = parent
	defer rt.releaseFrame(fr)

	args, err := rt.unmarshalIn(fr, argBuf)
	if err != nil {
		return err
	}

	var result wire.Value
	switch {
	case target == classmodel.CtorName:
		// Mirror instantiation: allocate the concrete object under the
		// proxy's hash, run the constructor, and export a strong
		// reference into the mirror–proxy registry. Allocation and the
		// registry handle share one heap critical section (the address
		// must not cross it); the export itself runs outside heapMu
		// because a duplicate export triggers the registry's releaser.
		rt.heapMu.Lock()
		h, err := rt.iso.NewObject(class, hash)
		var regHandle heap.Handle
		if err == nil {
			var addr heap.Addr
			addr, err = rt.iso.Heap().Deref(h)
			if err == nil {
				regHandle, err = rt.iso.HandleAt(addr)
			}
		}
		rt.heapMu.Unlock()
		if err != nil {
			return err
		}
		if _, err := rt.adoptHandle(fr, hash, h); err != nil {
			return err
		}
		if err := rt.reg.Export(hash, regHandle); err != nil {
			return err
		}
		self := wire.Ref(class, hash)
		// The relay frame is passed through so the ctor body inherits
		// the trace span (its null result adopts nothing).
		if _, err := rt.dispatch(classmodel.MethodRef{Class: class, Method: target}, self, args, fr); err != nil {
			return err
		}
		result = wire.Null()

	default:
		var self wire.Value
		targetRef := classmodel.MethodRef{Class: class, Method: target}
		_, tm, err := rt.img.Lookup(targetRef)
		if err != nil {
			return err
		}
		if !tm.Static {
			// Resolve the mirror: it must still be registered.
			if _, rerr := rt.resolve(fr, hash); rerr != nil {
				return fmt.Errorf("%w: %s#%d", ErrStaleMirror, class, hash)
			}
			self = wire.Ref(class, hash)
		}
		result, err = rt.dispatch(targetRef, self, args, fr)
		if err != nil {
			return err
		}
	}

	if finish == nil {
		return nil
	}
	return finish(fr, result)
}
