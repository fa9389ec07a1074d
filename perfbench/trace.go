package main

// trace.go is the traced run. It peels the layers: the same generated
// operations are driven through one more layer's public entry point at
// each stage, the stages interleaved in one closed loop, and a layer's
// self time is its stage median minus the stages inside it. Counts come
// from each layer's public Stats() and, for the fabric's nodes, from the
// per-node metrics registries of a telemetry fleet (tracing itself
// stays off). Every traced run reports every per-layer metric: the
// layers a workload does not use are measured on their own peel with
// fixed inputs (the KV stack on the kv-read mix, the RMI stack on
// rmi-mix lifecycles).

import (
	"slices"
	"time"

	"montsalvat/internal/fabric"
	"montsalvat/internal/persist"
	"montsalvat/internal/sgx"
	"montsalvat/internal/shim"
	"montsalvat/internal/telemetry"
	"montsalvat/internal/world"
)

// ownShare is the share of a traced run's seconds spent on the
// workload's own layers; the rest peels the other stack.
const ownShare = 0.7

// tracer accumulates a traced run.
type tracer struct {
	c       runConfig
	m       metrics
	correct bool
	all     loopResult // every closed-loop op of the run
}

func newTracer(c runConfig) *tracer { return &tracer{c: c, m: metrics{}, correct: true} }

// loop runs one stage's closed loop, logs its summary and adds its ops
// to the run's totals.
func (t *tracer) loop(stage string, n int, d time.Duration, op func(c int) (opKind, error)) loopResult {
	lr := closedLoop(n, d, op)
	t.note(stage, lr)
	return lr
}

// note logs a stage's summary and adds its ops to the run's totals.
func (t *tracer) note(stage string, lr loopResult) {
	t.all.merge(lr)
	if lr.wrong > 0 {
		t.correct = false
	}
	t.c.logf("%s: stage %s: %d ops in %.3fs (%d failed), median %.1fus",
		t.c.workload, stage, len(lr.lat), lr.elapsed.Seconds(), lr.failed, medianUS(lr.lat))
	if lr.firstErr != nil {
		t.c.logf("%s: stage %s: first error: %v", t.c.workload, stage, lr.firstErr)
	}
}

// stage is one layer's entry point in an interleaved loop.
type stage struct {
	name string
	op   func(c int) (opKind, error)
}

// interleave runs stages interleaved (see interleaved), logs each
// stage's summary and adds its ops to the run's totals.
func (t *tracer) interleave(d time.Duration, stages ...stage) []loopResult {
	ops := make([]func(c int) (opKind, error), len(stages))
	for i, s := range stages {
		ops[i] = s.op
	}
	rs := interleaved(clients, d, ops...)
	for i, lr := range rs {
		t.note(stages[i].name, lr)
	}
	return rs
}

// check logs a failed output check and marks the run incorrect.
func (t *tracer) check(what string, err error) {
	if err != nil {
		t.c.logf("%s: check failed %s: %v", t.c.workload, what, err)
		t.correct = false
	}
}

func (t *tracer) result() result {
	return result{Correct: t.correct && t.all.wrong == 0, Attempted: t.all.attempted, Failed: t.all.failed, Metrics: t.m}
}

// ratio is a/b, or 0 when b is 0 (a counter that did not move).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// share is a fraction of d, at least a quarter second.
func share(d time.Duration, f float64) time.Duration {
	return max(time.Duration(float64(d)*f), 250*time.Millisecond)
}

func traceKV(c runConfig, w kvWorkload) (result, error) {
	t := newTracer(c)
	budget := c.duration()
	if err := t.peelKV(w, time.Duration(float64(budget)*ownShare), true); err != nil {
		return result{}, err
	}
	if err := t.peelRMI(time.Duration(float64(budget)*(1-ownShare)), false); err != nil {
		return result{}, err
	}
	return t.result(), nil
}

func traceRMI(c runConfig) (result, error) {
	t := newTracer(c)
	budget := c.duration()
	if err := t.peelRMI(time.Duration(float64(budget)*ownShare), true); err != nil {
		return result{}, err
	}
	if err := t.peelKV(kvReadWorkload, time.Duration(float64(budget)*(1-ownShare)), false); err != nil {
		return result{}, err
	}
	return t.result(), nil
}

// worldCounts reports the world, boundary, ring, EPC, MEE and heap
// counters of a World over a phase of ops operations lasting secs.
func (t *tracer) worldCounts(before, after world.Stats, pool float64, ops int, secs float64) {
	n := float64(ops)
	d, d0 := after.Dispatch, before.Dispatch
	e, e0 := after.Enclave, before.Enclave
	sub := func(a, b uint64) float64 { return float64(a - b) }
	t.m.set("world.cycles_per_op", float64(after.Cycles-before.Cycles)/n, "cycles")
	t.m.set("boundary.transitions_per_op", (sub(e.Ecalls, e0.Ecalls)+sub(e.Ocalls, e0.Ocalls))/n, "count")
	t.m.set("boundary.mee_copied_bytes_per_op", sub(d.MEECopiedBytes, d0.MEECopiedBytes)/n, "B")
	sw, fb := sub(d.SwitchlessCalls, d0.SwitchlessCalls), sub(d.FallbackCalls, d0.FallbackCalls)
	t.m.set("boundary.switchless_calls_per_op", sw/n, "count")
	t.m.set("boundary.switchless_fallback_frac", ratio(fb, sw+fb), "1")
	t.m.set("boundary.batched_calls_per_flush", ratio(sub(d.BatchedCalls, d0.BatchedCalls), sub(d.BatchFlushes, d0.BatchFlushes)), "count")
	t.m.set("boundary.bufpool_miss_rate", pool, "1")
	ring, ringFB, over := sub(d.RingCalls, d0.RingCalls), sub(d.RingFallbacks, d0.RingFallbacks), sub(d.RingOversize, d0.RingOversize)
	routed := sub(d.FullCalls, d0.FullCalls) + sw + ring
	t.m.set("ring.calls_frac", ratio(ring, routed), "1")
	t.m.set("ring.fallback_frac", ratio(ringFB, ring+ringFB+over), "1")
	t.m.set("ring.oversize_frac", ratio(over, ring+ringFB+over), "1")
	t.m.set("ring.doorbells_per_submit", ratio(sub(d.RingDoorbells, d0.RingDoorbells), sub(d.RingSubmits, d0.RingSubmits)), "1")
	t.m.set("ring.sealed_bytes_per_op", sub(d.RingSealedBytes, d0.RingSealedBytes)/n, "B")
	t.m.set("epc.evictions_per_op", sub(e.Residency.Evictions, e0.Residency.Evictions)/n, "count")
	mee := sub(e.MEE.BytesEncrypted, e0.MEE.BytesEncrypted) + sub(e.MEE.BytesDecrypted, e0.MEE.BytesDecrypted)
	t.m.set("mee.bytes_per_op", mee/n, "B")
	colls := sub(after.TrustedHeap.Collections, before.TrustedHeap.Collections) +
		sub(after.UntrustedHeap.Collections, before.UntrustedHeap.Collections)
	t.m.set("heap.collections_per_kop", colls*1000/n, "count")
	pause := (after.TrustedHeap.TotalPause - before.TrustedHeap.TotalPause) +
		(after.UntrustedHeap.TotalPause - before.UntrustedHeap.TotalPause)
	t.m.set("heap.gc_pause_ms_per_s", float64(pause.Nanoseconds())/1e6/secs, "ms/s")
}

// collectMS times explicit collections of both of w's heaps and returns
// the median milliseconds of one.
func collectMS(w *world.World, times int) (float64, error) {
	var ms []float64
	for range times {
		t0 := time.Now()
		for _, rt := range []*world.Runtime{w.Trusted(), w.Untrusted()} {
			if err := rt.Collect(); err != nil {
				return 0, err
			}
		}
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(ms), nil
}

// peelKV peels the KV stack on mix w within budget. The stages,
// innermost first: a bare KV World (env.Call), the durable log
// (Manager.Append of the put records), direct gateway sessions to a
// shard (serve.Dial + Bind, then Call), and the router on a fabric
// without and with a replica. They run interleaved in one closed loop,
// each with the same seeded operations. own marks the traced workload's
// own stack: it adds an untraced fabric to the loop, which
// trace_overhead_frac and residual_us compare against, and reports the
// bare World's counters.
func (t *tracer) peelKV(w kvWorkload, budget time.Duration, own bool) error {
	seed := t.c.seed
	dom := opPut // the operation whose self times are reported
	if w.readFrac > 0.5 {
		dom = opGet
	}
	b, store, err := t.peelWorld(w, budget, own)
	if err != nil {
		return err
	}
	defer b.w.Close()
	wal, err := openLog(b.w)
	if err != nil {
		return err
	}
	// Both traced fabrics carry a fleet, so they differ only by the
	// replica.
	k0, err := bootFabric(0, kvKeys, telemetry.NewFleet(telemetry.Options{}))
	if err != nil {
		return err
	}
	defer k0.close()
	sess, err := t.dialSessions(k0.f)
	if err != nil {
		return err
	}
	defer sess.close()
	fleet := telemetry.NewFleet(telemetry.Options{})
	k1, err := bootFabric(1, kvKeys, fleet)
	if err != nil {
		return err
	}
	defer k1.close()

	// The session view shares k0's ledger: client c alone writes its
	// stripe, through either view in turn, so the ledger still holds
	// each key's last acked value.
	viaSessions := &kvStore{t: sess, want: k0.want, touched: k0.touched}
	stages := []stage{
		{"world", store.op(w, w.gens(seed))},
		{"persist append", wal.op(seed)},
		{"serve call", viaSessions.op(w, w.gens(seed))},
		{"router without replica", k0.op(w, w.gens(seed))},
		{"router", k1.op(w, w.gens(seed))},
		{"serve ping", func(c int) (opKind, error) { return opPing, sess.cs[c].Ping() }},
	}
	if own {
		ku, err := bootFabric(1, kvKeys, nil)
		if err != nil {
			return err
		}
		defer ku.close()
		stages = append(stages, stage{"untraced router", ku.op(w, w.gens(seed))})
	}
	size0, err := fsBytes(wal.fs)
	if err != nil {
		return err
	}
	f0, st0, red0 := snapFleet(fleet), k1.f.Stats(), k1.routers.redirects()
	rs := t.interleave(share(budget, 0.8), stages...)
	f1, st1, red1 := snapFleet(fleet), k1.f.Stats(), k1.routers.redirects()
	size1, err := fsBytes(wal.fs)
	if err != nil {
		return err
	}
	wl, appends, sv, r0, r1, ping := rs[0], rs[1], rs[2], rs[3], rs[4], rs[5]
	t.check("readback after the timed phase", k1.verify(false))

	// Self time: stage median minus the stages inside it.
	med := func(lr loopResult, k opKind) float64 { return medianUS(lr.latOf(k)) }
	persistUS := 0.0
	if dom == opPut {
		persistUS = medianUS(appends.lat)
	}
	stageUS := []float64{med(wl, dom), med(wl, dom) + persistUS, med(sv, dom), med(r0, dom), med(r1, dom)}
	self, _ := peel(stageUS, 0)
	t.c.logf("%s: kv peel on the %s mix: world %.1fus, persist %.1fus, serve %.1fus, route %.1fus, replica %.1fus",
		t.c.workload, w.name, self[0], self[1], self[2], self[3], self[4])
	t.m.set("persist.append_us", medianUS(appends.lat), "us")
	t.m.set("persist.bytes_per_user_byte", ratio(float64(size1-size0), float64(wal.userBytes())), "1")
	t.m.set("serve.call_self_us", self[2], "us")
	t.m.set("serve.ping_us", medianUS(ping.lat), "us")
	t.m.set("fabric.route_self_us", self[3], "us")
	t.m.set("fabric.ship_self_us", med(r1, opPut)-med(r0, opPut), "us")
	if own {
		// Closed-loop rates are clients over the mean latency.
		ru := rs[6]
		_, residual := peel(stageUS, med(ru, dom))
		t.m.set("residual_us", residual, "us")
		t.m.set("telemetry.trace_overhead_frac", 1-ratio(meanUS(ru.lat), meanUS(r1.lat)), "1")
	}

	ops, puts := float64(len(r1.lat)), float64(r1.count(opPut))
	userBytes := puts * float64(len(keyName(0))+valueBytes)
	t.m.set("fabric.redirects_per_op", float64(red1-red0)/ops, "count")
	t.m.set("fabric.ship_rounds_per_put", ratio(float64(st1.ShipRounds-st0.ShipRounds), puts), "count")
	t.m.set("fabric.ship_bytes_per_user_byte", ratio(float64(st1.ShipBytes-st0.ShipBytes), userBytes), "1")
	t.m.set("fabric.sync_fallbacks_per_put", ratio(float64(st1.SyncFallbacks-st0.SyncFallbacks), puts), "count")
	t.m.set("serve.rejected_per_req", ratio(f1.delta(f0, "montsalvat_serve_rejected_total"),
		f1.delta(f0, "montsalvat_serve_requests_total")), "count")
	walAppends := f1.delta(f0, "montsalvat_persist_wal_appends_total")
	grouped := f1.delta(f0, "montsalvat_persist_group_records_total")
	seals := f1.delta(f0, "montsalvat_persist_group_commits_total") + walAppends - grouped
	t.m.set("persist.records_per_seal", ratio(walAppends, seals), "count")

	// The failover drill on the replicated fabric.
	fo, err := k1.failover()
	if err != nil {
		return err
	}
	t.check("readback after failover", k1.verify(true))
	t.m.set("persist.checkpoint_ms", float64(fo.checkpoint.Nanoseconds())/1e6, "ms")
	t.m.set("persist.replay_records_per_s", float64(k1.tail())/fo.promote.Seconds(), "1/s")
	return nil
}

// peelWorld boots a bare KV World, preloads it, and drives puts, gets,
// and mix w at one and at two clients through env.Call. With own it
// reports the World's counters. The caller closes the World.
func (t *tracer) peelWorld(w kvWorkload, budget time.Duration, own bool) (*bareKV, *kvStore, error) {
	seed := t.c.seed
	b, err := bootBareKV()
	if err != nil {
		return nil, nil, err
	}
	store, err := newKVStore(b, kvKeys)
	if err != nil {
		b.w.Close()
		return nil, nil, err
	}
	putMix := kvWorkload{name: "puts"}
	getMix := kvWorkload{name: "gets", readFrac: 1, zipf: w.zipf}
	s0 := b.w.Stats()
	b.w.ResetPoolStats()
	wPut := t.loop("world put", clients, share(budget, 0.05), store.op(putMix, putMix.gens(seed)))
	wGet := t.loop("world get", clients, share(budget, 0.05), store.op(getMix, getMix.gens(seed)))
	w1 := t.loop("world mix x1", 1, share(budget, 0.05), store.op(w, w.gens(seed)))
	w2 := t.loop("world mix x2", clients, share(budget, 0.05), store.op(w, w.gens(seed)))
	s1 := b.w.Stats()
	t.m.set("world.put_us", medianUS(wPut.lat), "us")
	t.m.set("world.get_us", medianUS(wGet.lat), "us")
	t.m.set("world.parallel_speedup", ratio(w2.opsPerSec(), w1.opsPerSec()), "x")
	if own {
		ops := len(wPut.lat) + len(wGet.lat) + len(w1.lat) + len(w2.lat)
		secs := (wPut.elapsed + wGet.elapsed + w1.elapsed + w2.elapsed).Seconds()
		t.worldCounts(s0, s1, b.w.PoolStats().MissRate(), ops, secs)
		ms, err := collectMS(b.w, 5)
		if err != nil {
			b.w.Close()
			return nil, nil, err
		}
		t.m.set("heap.collect_ms", ms, "ms")
	}
	return b, store, nil
}

// dialSessions times handshakes to the fabric's shard, then opens one
// session per client.
func (t *tracer) dialSessions(f *fabric.Fabric) (*sessions, error) {
	var hs []float64
	for range 5 {
		cl, _, d, err := dialShard(f)
		if err != nil {
			return nil, err
		}
		cl.Close()
		hs = append(hs, float64(d.Nanoseconds())/1e6)
	}
	t.m.set("serve.handshake_ms", median(hs), "ms")
	return openSessions(f)
}

// durableLog is a fresh persist.Manager over its own MemFS, sealing
// with a World's enclave, as a shard's journal does.
type durableLog struct {
	m    *persist.Manager
	fs   *shim.MemFS
	user [clients]int // key and value bytes appended, per client
}

func openLog(w *world.World) (*durableLog, error) {
	fs := shim.NewMemFS()
	secret, err := sgx.NewPlatformSecret()
	if err != nil {
		return nil, err
	}
	ctr, err := sgx.NewMonotonicCounter(secret, persist.NewFSCounterStore(fs, "p/"), "perfbench")
	if err != nil {
		return nil, err
	}
	m, err := persist.Open(persist.Options{FS: fs, Enclave: w.Enclave(), Secret: secret, Counter: ctr, Dir: "p/", BeforeCommit: w.Flush})
	if err != nil {
		return nil, err
	}
	if err := m.Register(persist.NewMapState("kv")); err != nil {
		return nil, err
	}
	if _, err := m.Recover(); err != nil {
		return nil, err
	}
	return &durableLog{m: m, fs: fs}, nil
}

// op appends the put records of the seeded kv-write stream.
func (l *durableLog) op(seed uint64) func(c int) (opKind, error) {
	gens := kvWriteWorkload.gens(seed)
	vers := make([]uint64, clients)
	return func(c int) (opKind, error) {
		vers[c]++
		i := gens[c].nextOwn()
		k, v := keyName(i), value(i, uint64(c+1)<<40|vers[c])
		l.user[c] += len(k) + len(v)
		_, err := l.m.Append("kv", persist.OpPut, k, []byte(v))
		return opAppend, err
	}
}

func (l *durableLog) userBytes() int {
	n := 0
	for _, u := range l.user {
		n += u
	}
	return n
}

// fsBytes is the total size of the files on fs.
func fsBytes(fs shim.FS) (int64, error) {
	names, err := fs.List()
	if err != nil {
		return 0, err
	}
	var n int64
	for _, name := range names {
		s, err := fs.Size(name)
		if err != nil {
			return 0, err
		}
		n += s
	}
	return n, nil
}

// peelRMI peels the RMI stack of rmi-mix within budget: the step times
// of each lifecycle (proxy creation, the batched sets, setAll, get),
// interleaved with lifecycles that keep no step times, then a stage that
// times the batch flush, the heap collection and the GC helper sweep.
// own adds the World counters, residual_us and trace_overhead_frac.
func (t *tracer) peelRMI(budget time.Duration, own bool) error {
	rw, err := bootRMI(t.c.seed)
	if err != nil {
		return err
	}
	defer rw.close()
	cs := newRMIClients(t.c.seed)
	ph, err := rw.phase(cs, share(budget, 0.7), true)
	if err != nil {
		return err
	}
	t.note("rmi lifecycle", ph.lr)
	t.note("rmi lifecycle with step times", ph.traced)
	t.check("rmi garbage collection", ph.gcErr)

	var newUS, setsUS, setAllUS, getUS, small, large []time.Duration
	for i, s := range ph.steps {
		newUS, setsUS, setAllUS, getUS = append(newUS, s.newProxy), append(setsUS, s.sets), append(setAllUS, s.setAll), append(getUS, s.get)
		switch ph.classes[i] {
		case listSmall:
			small = append(small, s.setAll)
		case listLarge:
			large = append(large, s.setAll)
		}
	}
	t.m.set("world.new_proxy_us", medianUS(newUS), "us")
	t.m.set("world.rmi_get_us", medianUS(getUS), "us")
	t.m.set("world.set_all_us.small", medianUS(small), "us")
	t.m.set("world.set_all_us.large", medianUS(large), "us")
	ops := len(ph.lr.lat) + len(ph.traced.lat)
	a, b := ph.after, ph.before
	t.m.set("world.remote_calls_per_op", float64(a.Trusted.RemoteCallsOut+a.Untrusted.RemoteCallsOut-
		b.Trusted.RemoteCallsOut-b.Untrusted.RemoteCallsOut)/float64(ops), "count")
	t.m.set("world.marshalled_bytes_per_op", float64(a.Trusted.MarshalledBytes+a.Untrusted.MarshalledBytes-
		b.Trusted.MarshalledBytes-b.Untrusted.MarshalledBytes)/float64(ops), "B")
	t.m.set("world.mirrors_released_per_op", float64(ph.released)/float64(ops), "count")
	if own {
		t.worldCounts(b, a, ph.pool.MissRate(), ops, ph.lr.elapsed.Seconds())
		stageUS := []float64{medianUS(newUS)}
		for _, s := range [][]time.Duration{setsUS, setAllUS, getUS} {
			stageUS = append(stageUS, stageUS[len(stageUS)-1]+medianUS(s))
		}
		_, residual := peel(stageUS, medianUS(ph.lr.lat))
		t.m.set("residual_us", residual, "us")
		t.m.set("telemetry.trace_overhead_frac", 1-ratio(meanUS(ph.lr.lat), meanUS(ph.traced.lat)), "1")
	}
	return t.sweepStage(rw, cs, share(budget, 0.3), own)
}

// sweepBatch is the number of lifecycles per client between the sweep
// stage's explicit collections.
const sweepBatch = 100

// sweepStage runs rounds of: sweepBatch lifecycles per client with an
// explicit, timed batch flush after the sets; a timed collection of
// both heaps; a timed GC-helper sweep of the untrusted weak list. The
// helpers are stopped, so each sweep releases the round's mirrors.
func (t *tracer) sweepStage(rw *rmiWorld, cs []*rmiClient, d time.Duration, own bool) error {
	rw.w.StopGCHelpers()
	flushes := make([][]time.Duration, clients)
	var collect, sweep []float64
	start := time.Now()
	for len(sweep) < 5 || time.Since(start) < d {
		err := parallel(clients, func(c int) error {
			for range sweepBatch {
				vals, lc := cs[c].next()
				lt, err := rw.lifecycle(vals, lc, true)
				if err != nil {
					return err
				}
				flushes[c] = append(flushes[c], lt.flush)
			}
			return nil
		})
		if err != nil {
			return err
		}
		ms, err := collectMS(rw.w, 1)
		if err != nil {
			return err
		}
		collect = append(collect, ms)
		t0 := time.Now()
		if err := rw.w.SweepOnce(rw.w.Untrusted()); err != nil {
			return err
		}
		sweep = append(sweep, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	live, err := rw.quiesce()
	if err != nil {
		return err
	}
	flush := slices.Concat(flushes...)
	t.c.logf("%s: stage rmi sweep: %d rounds of %d lifecycles, median flush %.1fus, collect %.3fms, sweep %.1fus",
		t.c.workload, len(sweep), clients*sweepBatch, medianUS(flush), median(collect), median(sweep))
	t.m.set("boundary.flush_us", medianUS(flush), "us")
	t.m.set("world.sweep_us", median(sweep), "us")
	t.m.set("world.live_objects_end", float64(live), "count")
	if own {
		t.m.set("heap.collect_ms", median(collect), "ms")
	}
	return nil
}
