package main

// kv.go drives the attested KV store: the kv-write and kv-read traffic
// mixes, the ledger that checks every read, and the fabric with its
// fixed failover drill. The same generated operations can be sent
// through any layer's public entry point (a kvTarget), which is how the
// traced run peels the layers.

import (
	"fmt"
	"time"

	"montsalvat/internal/fabric"
	"montsalvat/internal/telemetry"
)

const (
	// kvKeys is the preloaded keyspace of both KV workloads.
	kvKeys = 10_000
)

// kvWorkload is one KV traffic mix.
type kvWorkload struct {
	name     string
	readFrac float64 // share of gets; the rest are puts
	zipf     bool    // Zipf-skewed get keys instead of uniform
}

var (
	kvWriteWorkload = kvWorkload{name: "kv-write"}
	kvReadWorkload  = kvWorkload{name: "kv-read", readFrac: 0.95, zipf: true}
)

// gens builds the per-client key generators of w for seed.
func (w kvWorkload) gens(seed uint64) []*keyGen {
	gs := make([]*keyGen, clients)
	for c := range gs {
		gs[c] = newKeyGen(seed, c, clients, kvKeys, w.zipf)
	}
	return gs
}

// kvTarget is one layer's public entry point for KV operations, with a
// separate connection or goroutine state per client.
type kvTarget interface {
	put(c int, key, val string) error
	get(c int, key string) (val string, ok bool, err error)
}

// kvStore is a preloaded store behind a target, with the ledger of
// acked values.
type kvStore struct {
	t kvTarget
	// want[i] is the last acked value of key i ("" after a put that
	// failed: either value may then be stored). Only the client owning
	// i's stripe writes want[i] and touched[i].
	want []string
	// touched[i] is set once a put to key i is attempted after the
	// preload.
	touched []bool
}

// newKVStore preloads version 0 of keys keys through t, each client
// its own stripe.
func newKVStore(t kvTarget, keys int) (*kvStore, error) {
	s := &kvStore{t: t, want: make([]string, keys), touched: make([]bool, keys)}
	err := parallel(clients, func(c int) error {
		for i := c; i < keys; i += clients {
			if err := s.put(c, i, value(i, 0)); err != nil {
				return fmt.Errorf("preload %s: %w", keyName(i), err)
			}
		}
		return nil
	})
	clear(s.touched)
	return s, err
}

// put writes key i from client c and records the acked value.
func (s *kvStore) put(c, i int, v string) error {
	s.touched[i] = true
	if err := s.t.put(c, keyName(i), v); err != nil {
		s.want[i] = ""
		return err
	}
	s.want[i] = v
	return nil
}

// get reads key i from client c and checks the value: a key of c's own
// stripe must hold c's last acked value, any other key a value written
// for it.
func (s *kvStore) get(c, i int) error {
	v, ok, err := s.t.get(c, keyName(i))
	if err != nil {
		return err
	}
	switch {
	case !ok:
		return wrongf("get %s: key absent", keyName(i))
	case i%clients == c && s.want[i] != "" && v != s.want[i]:
		return wrongf("get %s: read %q, last acked %q", keyName(i), v, s.want[i])
	case !valueOK(i, v):
		return wrongf("get %s: read %q, not a value written for it", keyName(i), v)
	}
	return nil
}

// op returns the closed-loop operation of mix w: client c draws its
// keys from gens[c] and numbers its puts itself.
func (s *kvStore) op(w kvWorkload, gens []*keyGen) func(c int) (opKind, error) {
	vers := make([]uint64, len(gens))
	return func(c int) (opKind, error) {
		g := gens[c]
		if w.readFrac > 0 && g.chance(w.readFrac) {
			return opGet, s.get(c, g.next())
		}
		vers[c]++
		i := g.nextOwn()
		return opPut, s.put(c, i, value(i, uint64(c+1)<<40|vers[c]))
	}
}

// verify reads back every key put since the preload, or with all
// every key, and checks it holds its last acked value.
func (s *kvStore) verify(all bool) error {
	return parallel(clients, func(c int) error {
		bad := 0
		var first error
		for i := c; i < len(s.want); i += clients {
			if !all && !s.touched[i] {
				continue
			}
			if err := s.get(c, i); err != nil {
				bad++
				if first == nil {
					first = err
				}
			}
		}
		if bad > 0 {
			return fmt.Errorf("readback: %d keys failed, first: %w", bad, first)
		}
		return nil
	})
}

// routers is the fabric client target: one fabric.Router per client.
type routers []*fabric.Router

func (r routers) put(c int, key, val string) error { return r[c].Put(key, val) }

func (r routers) get(c int, key string) (string, bool, error) { return r[c].Get(key) }

// redirects sums the routers' redirect counters.
func (r routers) redirects() uint64 {
	var n uint64
	for _, rt := range r {
		n += rt.Stats().Redirects
	}
	return n
}

// kvFabric is a booted one-shard fabric behind one router per client.
type kvFabric struct {
	*kvStore
	f       *fabric.Fabric
	routers routers
}

// bootFabric builds a fabric of one shard with the given replica count,
// dials one router per client, and preloads keys keys through them.
// Every other fabric option keeps its default; fleet is nil on untraced
// runs.
func bootFabric(replicas, keys int, fleet *telemetry.Fleet) (*kvFabric, error) {
	f, err := fabric.New(fabric.Options{Shards: 1, Replicas: replicas, Fleet: fleet})
	if err != nil {
		return nil, fmt.Errorf("boot fabric: %w", err)
	}
	k := &kvFabric{f: f}
	for range clients {
		k.routers = append(k.routers, f.Client(fabric.RouterConfig{}))
	}
	if k.kvStore, err = newKVStore(k.routers, keys); err != nil {
		k.close()
		return nil, err
	}
	return k, nil
}

func (k *kvFabric) close() {
	for _, r := range k.routers {
		r.Close()
	}
	k.f.Close()
}

// cycles sums the virtual-cycle ledgers of the live primaries.
func (k *kvFabric) cycles() int64 {
	var sum int64
	for _, c := range k.f.ShardBusyCycles() {
		sum += c
	}
	return sum
}

// tail is the number of puts between the drill's checkpoint and the
// kill: a fifth of the keyspace.
func (k *kvFabric) tail() int { return len(k.want) / 5 }

// failoverResult is what the failover drill measured.
type failoverResult struct {
	checkpoint time.Duration // Fabric.Checkpoint wall time
	promote    time.Duration // Fabric.Promote wall time
}

// failover runs the fixed drill: checkpoint, a put to each of the first
// tail() keys, kill the primary, promote its standby. The tail and its
// values do not depend on the seed, so every run on a keyspace replays
// the same WAL tail.
func (k *kvFabric) failover() (failoverResult, error) {
	var res failoverResult
	id := k.f.Table().Shards[0].ID
	t0 := time.Now()
	if err := k.f.Checkpoint(id); err != nil {
		return res, fmt.Errorf("failover checkpoint: %w", err)
	}
	res.checkpoint = time.Since(t0)
	err := parallel(clients, func(c int) error {
		for i := c; i < k.tail(); i += clients {
			if err := k.put(c, i, value(i, 1<<62|uint64(i))); err != nil {
				return fmt.Errorf("failover tail put: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	exp, err := k.f.KillShard(id)
	if err != nil {
		return res, fmt.Errorf("failover kill: %w", err)
	}
	t0 = time.Now()
	if err := k.f.Promote(id, exp); err != nil {
		return res, fmt.Errorf("failover promote: %w", err)
	}
	res.promote = time.Since(t0)
	return res, nil
}
