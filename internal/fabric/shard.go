package fabric

// shard.go is one primary of the fabric: a World running the demo KV
// program behind an attested serve gateway, its acked puts journaled
// through a persist.Manager whose complete durable root (WAL,
// checkpoints, monotonic counter) lives on a per-shard filesystem —
// the unit that checkpoint shipping replicates and promotion rebuilds.
// The gateway's ShardCheck predicate rejects keys the consistent-hash
// ring assigns elsewhere, and its Journal hook appends every put
// through the group-commit queue and holds the ack until the
// replication pump has shipped it to every replica (or the fallback
// shipped it synchronously), so "acked" always implies "durable on the
// replica set".

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/demo"
	"montsalvat/internal/lockrank"
	"montsalvat/internal/persist"
	"montsalvat/internal/serve"
	"montsalvat/internal/sgx"
	"montsalvat/internal/shim"
	"montsalvat/internal/telemetry"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// Expectation is the durable position a dead primary had acknowledged:
// the counter stamp of its last checkpoint lineage and its last
// journaled LSN. A replica may only be promoted if it recovers to at
// least this position — the cross-machine extension of the
// monotonic-counter rollback defense.
type Expectation struct {
	Stamp uint64
	LSN   uint64
}

// shardNode is one primary shard: world, gateway, durable manager,
// peer host (for sibling shards' cross-shard calls), and the shippers
// feeding its replicas.
type shardNode struct {
	id  int
	fab *Fabric

	// tel is this node's slice of the fleet observability plane: a
	// private metrics registry plus the fleet-shared tracer and event
	// journal. Nil when the fabric runs without a Fleet.
	tel *telemetry.Telemetry

	w  *world.World
	fs *shim.MemFS
	kv *persist.WorldKV

	srv       *serve.Server
	ln        net.Listener
	serveDone chan error

	peerHost *PeerHost
	peerLn   net.Listener
	peerDone chan error

	mu       lockrank.Mutex
	mgr      *persist.Manager
	shippers []*shipper

	// Replication pump state. Lock hierarchy:
	// ackMu > n.mu > shipper locks > manager mutex — ackMu may be held
	// while computing the watermark (which snapshots shippers under
	// n.mu), never the reverse.
	ackMu       lockrank.Mutex
	waiters     []*pendingAck
	pumpErr     error // non-nil once the pump is stopped; fails new waiters fast
	pumpStopped bool

	pumpKick chan struct{}
	pumpStop chan struct{}
	pumpDone chan struct{}

	// ackedHigh is the highest LSN this node has acknowledged. It seeds
	// from the recovered position at gateway start and advances with
	// every completed ack. kill() captures it as the promotion
	// expectation: the durable-but-unacked tail beyond it carries no
	// promise and must not fail a healthy successor, while everything
	// at or below it was replicated (or fallback-shipped) before its
	// ack left.
	ackedHigh atomic.Uint64
}

// pendingAck is one journaled put parked on the replication watermark:
// its ack leaves when every replica's acked LSN covers lsn, when the
// fallback timer degrades it to a synchronous ship, or when the pump
// stops. done is guarded by ackMu and makes completion single-shot
// across those three racing paths.
type pendingAck struct {
	lsn      uint64
	sc       telemetry.SpanContext
	complete func(error)
	timer    *time.Timer
	done     bool
}

// buildWorld constructs one fabric World. Every world shares the fabric
// signer, so all enclaves carry the same MRSIGNER and sealed state
// written by one can be unsealed by another — the property replication
// and promotion rest on. tel (optional) instruments the world's
// boundary crossings on that node's registry and joins its RMI spans to
// the fleet-shared tracer.
func (f *Fabric) buildWorld(tel *telemetry.Telemetry) (*world.World, error) {
	opts := world.DefaultOptions()
	opts.Signer = f.signer
	opts.Telemetry = tel
	if b := f.opts.Build; b != nil {
		return world.NewPartitioned(opts, b.TrustedImage, b.UntrustedImage, b.Transform.Interface)
	}
	w, _, err := core.NewPartitionedWorld(demo.MustKVProgram(), opts)
	return w, err
}

// newStoreRef creates and pins a fresh KVStore in w.
func newStoreRef(w *world.World) (wire.Value, error) {
	var ref wire.Value
	err := w.Exec(false, func(env classmodel.Env) error {
		v, err := env.New(demo.KVStoreCls)
		if err != nil {
			return err
		}
		ref = v
		return nil
	})
	if err != nil {
		return wire.Value{}, err
	}
	if err := w.Untrusted().Pin(ref); err != nil {
		return wire.Value{}, err
	}
	return ref, nil
}

// openManager boots a persist.Manager for shard id over fs and w's
// current enclave, registers kv, and recovers. The counter store lives
// on the same fs (FSCounterStore), so the rollback-protection state is
// part of the replicated root. tel (optional) gives the manager the
// node's metrics registry and the fleet event journal.
func (f *Fabric) openManager(id int, w *world.World, fs shim.FS, kv *persist.WorldKV, tel *telemetry.Telemetry) (*persist.Manager, persist.Report, error) {
	ctr, err := sgx.NewMonotonicCounter(f.secret, persist.NewFSCounterStore(fs, shardDir), ShardOrigin(id))
	if err != nil {
		return nil, persist.Report{}, err
	}
	m, err := persist.Open(persist.Options{
		FS:           fs,
		Enclave:      w.Enclave(),
		Secret:       f.secret,
		Counter:      ctr,
		Dir:          shardDir,
		BeforeCommit: w.Flush,
		Telemetry:    tel.Registry(),
		Events:       tel.Events(),
		Node:         ShardOrigin(id),
		Logf:         f.opts.Logf,
	})
	if err != nil {
		return nil, persist.Report{}, err
	}
	if err := m.Register(kv); err != nil {
		return nil, persist.Report{}, err
	}
	rep, err := m.Recover()
	if err != nil {
		return nil, persist.Report{}, err
	}
	return m, rep, nil
}

// shardDir is the durable-root directory on each shard's filesystem.
const shardDir = "p/"

// newShardNode boots primary id: world, store, manager, gateway, peer
// host. Shippers attach later (connectReplicas), once the replica
// listeners exist.
func newShardNode(f *Fabric, id int) (*shardNode, error) {
	tel := f.nodeTel(ShardOrigin(id))
	w, err := f.buildWorld(tel)
	if err != nil {
		return nil, err
	}
	n := &shardNode{id: id, fab: f, tel: tel, w: w, fs: shim.NewMemFS()}
	n.mu.SetRank(lockrank.RankFabricNode, "fabric.shardNode.mu")
	n.ackMu.SetRank(lockrank.RankFabricAck, "fabric.shardNode.ackMu")
	n.kv = persist.NewWorldKV("kv", w)
	ref, err := newStoreRef(w)
	if err != nil {
		w.Close()
		return nil, err
	}
	n.kv.SetRef(ref)
	mgr, _, err := f.openManager(id, w, n.fs, n.kv, tel)
	if err != nil {
		w.Close()
		return nil, err
	}
	n.mgr = mgr
	if err := n.startGateway(); err != nil {
		w.Close()
		return nil, err
	}
	return n, nil
}

// startGateway opens the serve endpoint and the peer host for this
// shard's world.
func (n *shardNode) startGateway() error {
	f := n.fab
	sOpts := serve.Options{
		World:       n.w,
		Platform:    f.platform,
		MaxSessions: f.opts.MaxSessions,
		MaxInFlight: f.opts.MaxInFlight,
		Logf:        f.opts.Logf,
		ShardCheck:  f.shardCheckFor(n.id),
		Telemetry:   n.tel,
		Node:        ShardOrigin(n.id),
		Journal:     n.journal,
	}
	// The worker hands each put to the commit queue and is freed; the
	// ack leaves when the replication watermark covers the put's LSN.
	// The pump must be live before the first request lands. Everything
	// recovered counts as acked — it was validated against the
	// predecessor's expectation.
	n.ackedHigh.Store(n.mgr.Stats().LastLSN)
	n.startPump()
	srv, err := serve.New(sOpts)
	if err != nil {
		n.stopPump(fmt.Errorf("fabric: shard %d gateway failed to start", n.id))
		return err
	}
	srv.Export("kv", func(env classmodel.Env) (wire.Value, error) {
		ref := n.kv.Ref()
		if ref.IsNull() {
			return wire.Value{}, errors.New("store not initialised")
		}
		return ref, nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.stopPump(fmt.Errorf("fabric: shard %d gateway failed to start", n.id))
		return err
	}
	n.srv, n.ln = srv, ln
	n.serveDone = make(chan error, 1)
	go func() { n.serveDone <- srv.Serve(ln) }()

	n.peerHost = &PeerHost{
		Identity: PeerIdentity{Platform: f.platform, Enclave: n.w.Enclave(), Origin: ShardOrigin(n.id)},
		Timeout:  f.opts.PeerTimeout,
		World:    n.w,
		Exports: map[string]func() (wire.Value, error){
			"kv": func() (wire.Value, error) {
				ref := n.kv.Ref()
				if ref.IsNull() {
					return wire.Value{}, errors.New("store not initialised")
				}
				return ref, nil
			},
		},
		Logf:        f.opts.Logf,
		OnHandshake: func() { f.peerHandshakes.Add(1) },
		Telemetry:   n.tel,
	}
	peerLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ln.Close()
		n.stopPump(fmt.Errorf("fabric: shard %d gateway failed to start", n.id))
		return err
	}
	n.peerLn = peerLn
	n.peerDone = make(chan error, 1)
	go func() { n.peerDone <- n.peerHost.Serve(peerLn) }()
	return nil
}

// shardCheckFor is the gateway partition predicate for shard id: KV
// operations carrying a key the current ring assigns to another shard
// are rejected with the typed redirect.
func (f *Fabric) shardCheckFor(id int) func(op, class, method string, args []wire.Value) error {
	return func(op, class, method string, args []wire.Value) error {
		if class != demo.KVStoreCls || (method != "put" && method != "get") || len(args) == 0 {
			return nil
		}
		key, ok := args[0].AsStr()
		if !ok {
			return nil
		}
		t := f.Table()
		if owner := t.Owner(key); owner != id {
			return &serve.WrongShardError{Owner: owner, Epoch: t.Epoch}
		}
		return nil
	}
}

func (n *shardNode) manager() *persist.Manager {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.mgr
}

// journal is the gateway's Journal hook. The append runs inline —
// concurrent workers parking on the commit queue is exactly what forms
// a batch, and the pool is wider than any client fan-out — but the ack
// goes asynchronous the moment it has to wait on replication: complete
// fires from the pump (watermark) or the fallback ship, not from this
// worker. The mutation's trace context rides along so the replication
// leg of the ack path lands in the same trace as the client's put.
// Non-put mutations complete immediately.
func (n *shardNode) journal(m serve.Mutation, complete func(error)) {
	if m.Op != serve.MutationCall || m.Class != demo.KVStoreCls || m.Method != "put" || len(m.Args) < 2 {
		complete(nil)
		return
	}
	key, _ := m.Args[0].AsStr()
	val, _ := m.Args[1].AsStr()
	lsn, err := n.manager().Append("kv", persist.OpPut, key, []byte(val))
	if err != nil {
		complete(err)
		return
	}
	n.awaitReplicated(lsn, m.Trace, complete)
}

// skipAckGate plants the ungated-ack bug — awaitReplicated completing
// a waiter without consulting the replication watermark — for the
// model checker's mutation test (export_test.go). Never set outside
// tests.
var skipAckGate bool

// awaitReplicated gates an ack on the replication watermark: complete
// fires once every replica's acked LSN covers lsn. If the watermark
// stalls, the fallback timer degrades this waiter to a synchronous
// ship; if the pump is stopped, the waiter fails immediately.
func (n *shardNode) awaitReplicated(lsn uint64, sc telemetry.SpanContext, complete func(error)) {
	n.ackMu.Lock()
	if n.pumpErr != nil {
		err := n.pumpErr
		n.ackMu.Unlock()
		complete(err)
		return
	}
	if skipAckGate || lsn <= n.coveredLSN() {
		n.ackMu.Unlock()
		n.noteAckedHigh(lsn)
		complete(nil)
		return
	}
	pa := &pendingAck{lsn: lsn, sc: sc, complete: complete}
	pa.timer = time.AfterFunc(n.fab.syncFallbackAfter(), func() { n.ackFallback(pa) })
	n.waiters = append(n.waiters, pa)
	n.ackMu.Unlock()
	n.kickPump()
}

// coveredLSN is the replication watermark: the highest LSN every
// attached replica has durably applied. Paused replicas count — a
// pause freezes the watermark, and stalled waiters degrade through the
// fallback path rather than acking unreplicated writes early. With no
// replicas attached there is nothing to wait for.
func (n *shardNode) coveredLSN() uint64 {
	covered := ^uint64(0)
	n.mu.Lock()
	for _, sh := range n.shippers {
		// acked() is one atomic load; cheap enough to take under n.mu
		// on every journaled put without copying the slice.
		if a := sh.acked(); a < covered {
			covered = a
		}
	}
	n.mu.Unlock()
	return covered
}

// startPump launches the replication pump: one goroutine per shard
// that ships deltas whenever waiters are parked, batching however many
// puts landed since the last round into one ship per replica.
func (n *shardNode) startPump() {
	n.pumpKick = make(chan struct{}, 1)
	n.pumpStop = make(chan struct{})
	n.pumpDone = make(chan struct{})
	go n.pumpLoop()
}

func (n *shardNode) kickPump() {
	select {
	case n.pumpKick <- struct{}{}:
	default: // a round is already scheduled; it will see this waiter
	}
}

func (n *shardNode) pumpLoop() {
	defer close(n.pumpDone)
	for {
		select {
		case <-n.pumpStop:
			return
		case <-n.pumpKick:
			n.pumpRound()
		}
	}
}

// pumpRound ships one delta round to every replica and completes every
// waiter the advanced watermark now covers. The round is traced as a
// commit-leader span continuing the oldest waiter's trace; the
// per-replica ship spans parent under it, so a trace shows one batched
// replication round serving many puts. Ship errors are not fatal here —
// a waiter a failed round leaves behind is delivered (value or error)
// by its fallback ship.
func (n *shardNode) pumpRound() {
	n.ackMu.Lock()
	if len(n.waiters) == 0 {
		n.ackMu.Unlock()
		return
	}
	sc := n.waiters[0].sc
	n.ackMu.Unlock()

	sp := n.tel.Tracer().StartRemote(sc, "commit-leader")
	sp.SetNode(ShardOrigin(n.id))
	n.mu.Lock()
	shippers := append([]*shipper(nil), n.shippers...)
	n.mu.Unlock()
	for _, sh := range shippers {
		_ = sh.ship(sp.Context())
	}
	sp.Finish(nil)
	n.completeCovered()
}

// completeCovered releases every waiter at or below the watermark.
func (n *shardNode) completeCovered() {
	covered := n.coveredLSN()
	n.ackMu.Lock()
	var ready []*pendingAck
	rest := n.waiters[:0]
	for _, pa := range n.waiters {
		if pa.lsn <= covered {
			pa.done = true
			pa.timer.Stop()
			ready = append(ready, pa)
		} else {
			rest = append(rest, pa)
		}
	}
	n.waiters = rest
	n.ackMu.Unlock()
	for _, pa := range ready {
		n.noteAckedHigh(pa.lsn)
		pa.complete(nil)
	}
}

// noteAckedHigh advances the acked-position watermark monotonically.
func (n *shardNode) noteAckedHigh(lsn uint64) {
	for {
		cur := n.ackedHigh.Load()
		if lsn <= cur || n.ackedHigh.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// ackFallback fires when a waiter has sat on the watermark longer than
// SyncFallbackAfter: the shard ships synchronously on its behalf
// (paused replicas are skipped there, as in every ship round) and
// delivers the outcome, error included.
func (n *shardNode) ackFallback(pa *pendingAck) {
	n.ackMu.Lock()
	if pa.done {
		n.ackMu.Unlock()
		return
	}
	pa.done = true
	for i, w := range n.waiters {
		if w == pa {
			n.waiters = append(n.waiters[:i], n.waiters[i+1:]...)
			break
		}
	}
	n.ackMu.Unlock()
	n.fab.syncFallbacks.Add(1)
	err := n.shipAll(pa.sc)
	if err == nil {
		n.noteAckedHigh(pa.lsn)
	}
	pa.complete(err)
}

// stopPump halts the replication pump and fails every parked waiter
// with err; later awaitReplicated calls fail immediately. Idempotent —
// the first err wins.
func (n *shardNode) stopPump(err error) {
	n.ackMu.Lock()
	if n.pumpErr == nil {
		n.pumpErr = err
	}
	taken := n.waiters
	n.waiters = nil
	for _, pa := range taken {
		pa.done = true
		pa.timer.Stop()
	}
	stopped := n.pumpStopped
	n.pumpStopped = true
	n.ackMu.Unlock()
	if !stopped {
		close(n.pumpStop)
		<-n.pumpDone
	}
	for _, pa := range taken {
		pa.complete(err)
	}
}

// shipAll pushes the current durable root to every attached replica,
// continuing sc's trace into each ship.
func (n *shardNode) shipAll(sc telemetry.SpanContext) error {
	n.mu.Lock()
	shippers := append([]*shipper(nil), n.shippers...)
	n.mu.Unlock()
	for _, sh := range shippers {
		if err := sh.ship(sc); err != nil {
			return fmt.Errorf("fabric: shard %d ship to %s: %w", n.id, sh.conn.RemoteOrigin(), err)
		}
	}
	return nil
}

// attachShipper registers a connected replica channel and pushes the
// initial full delta.
func (n *shardNode) attachShipper(sh *shipper) error {
	n.mu.Lock()
	n.shippers = append(n.shippers, sh)
	n.mu.Unlock()
	return sh.ship(telemetry.SpanContext{})
}

// expectation captures the durable position this primary has
// acknowledged — what any promoted successor must reach. The
// durable-but-unacked tail past the acked watermark carries no
// promise, and a healthy replica may not hold it — a successor only
// has to cover what was acked.
func (n *shardNode) expectation() Expectation {
	return Expectation{Stamp: n.manager().Stats().Epoch, LSN: n.ackedHigh.Load()}
}

// kill simulates primary failure: capture the acked position, kill the
// enclave, tear the gateway and peer endpoints down. In-flight requests
// fail; nothing acked is lost (it was shipped before the ack).
func (n *shardNode) kill() Expectation {
	exp := n.expectation()
	n.w.Kill()
	// Stop the pump before draining the gateway: parked waiters fail
	// fast instead of holding Shutdown open until their fallback timers.
	n.stopPump(fmt.Errorf("fabric: shard %d primary killed", n.id))
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	_ = n.srv.Shutdown(ctx)
	cancel()
	n.ln.Close()
	n.teardownPeers()
	<-n.serveDone
	return exp
}

func (n *shardNode) teardownPeers() {
	n.mu.Lock()
	shippers := n.shippers
	n.shippers = nil
	n.mu.Unlock()
	for _, sh := range shippers {
		sh.close()
	}
	if n.peerHost != nil {
		n.peerHost.Close()
		<-n.peerDone
	}
}

// shutdown is the graceful path (Fabric.Close): drain the gateway
// first — in-flight puts finish through the still-running pump — then
// stop the pump (no waiters can remain).
func (n *shardNode) shutdown(ctx context.Context) error {
	err := n.srv.Shutdown(ctx)
	n.stopPump(fmt.Errorf("fabric: shard %d shut down", n.id))
	n.ln.Close()
	n.teardownPeers()
	<-n.serveDone
	n.w.Close()
	return err
}
