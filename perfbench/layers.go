package main

// layers.go holds the inner layers' public entry points as KV targets:
// a bare KV World (env.Call), direct gateway sessions (serve.Dial +
// Bind), and the counters read from the fleet's per-node registries.

import (
	"fmt"
	"strings"
	"time"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/demo"
	"montsalvat/internal/fabric"
	"montsalvat/internal/serve"
	"montsalvat/internal/telemetry"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// bareKV is the KV program in a partitioned World of its own, called
// with env.Call from the untrusted side as a fabric shard does.
type bareKV struct {
	w   *world.World
	ref wire.Value
}

func bootBareKV() (*bareKV, error) {
	w, _, err := core.NewPartitionedWorld(demo.MustKVProgram(), world.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("boot bare kv world: %w", err)
	}
	b := &bareKV{w: w}
	err = w.Exec(false, func(env classmodel.Env) error {
		ref, err := env.New(demo.KVStoreCls)
		b.ref = ref
		return err
	})
	if err == nil {
		err = w.Untrusted().Pin(b.ref)
	}
	if err != nil {
		w.Close()
		return nil, fmt.Errorf("create kv store: %w", err)
	}
	return b, nil
}

func (b *bareKV) put(_ int, key, val string) error {
	return b.w.Exec(false, func(env classmodel.Env) error {
		_, err := env.Call(b.ref, "put", wire.Str(key), wire.Str(val))
		return err
	})
}

func (b *bareKV) get(_ int, key string) (string, bool, error) {
	var v wire.Value
	err := b.w.Exec(false, func(env classmodel.Env) error {
		var err error
		v, err = env.Call(b.ref, "get", wire.Str(key))
		return err
	})
	return strOf(v, err)
}

// strOf converts a get result.
func strOf(v wire.Value, err error) (string, bool, error) {
	if err != nil || v.IsNull() {
		return "", false, err
	}
	s, _ := v.AsStr()
	return s, true, nil
}

// sessions are direct gateway sessions to a fabric shard, one per
// client, bound to the exported store.
type sessions struct {
	cs []*serve.Client
	hs []serve.Handle
}

// dialShard opens a session to the fabric's first shard and binds
// "kv". It returns the handshake time (dial plus attestation).
func dialShard(f *fabric.Fabric) (*serve.Client, serve.Handle, time.Duration, error) {
	info := f.Table().Shards[0]
	t0 := time.Now()
	cl, err := serve.Dial(info.Addr, serve.ClientConfig{Platform: f.Platform(), Measurement: info.Measurement})
	if err != nil {
		return nil, serve.Handle{}, 0, fmt.Errorf("dial shard: %w", err)
	}
	hs := time.Since(t0)
	h, err := cl.Bind("kv")
	if err != nil {
		cl.Close()
		return nil, serve.Handle{}, 0, fmt.Errorf("bind kv: %w", err)
	}
	return cl, h, hs, nil
}

// openSessions opens one session per client to the fabric's first
// shard.
func openSessions(f *fabric.Fabric) (*sessions, error) {
	s := &sessions{}
	for range clients {
		cl, h, _, err := dialShard(f)
		if err != nil {
			s.close()
			return nil, err
		}
		s.cs = append(s.cs, cl)
		s.hs = append(s.hs, h)
	}
	return s, nil
}

func (s *sessions) close() {
	for _, c := range s.cs {
		c.Close()
	}
}

func (s *sessions) put(c int, key, val string) error {
	_, err := s.cs[c].Call(s.hs[c], "put", wire.Str(key), wire.Str(val))
	return err
}

func (s *sessions) get(c int, key string) (string, bool, error) {
	return strOf(s.cs[c].Call(s.hs[c], "get", wire.Str(key)))
}

// fleetSnap is the sum of every fleet node's counters, by metric name
// (labels folded).
type fleetSnap map[string]uint64

func snapFleet(f *telemetry.Fleet) fleetSnap {
	s := fleetSnap{}
	for _, name := range f.NodeNames() {
		for k, v := range f.Node(name).Registry().Snapshot().Counters {
			s[baseName(k)] += v
		}
	}
	return s
}

// baseName strips the labels from a canonical metric key.
func baseName(key string) string {
	name, _, _ := strings.Cut(key, "{")
	return name
}

// delta is a counter's growth from s0 to s.
func (s fleetSnap) delta(s0 fleetSnap, name string) float64 {
	return float64(s[name] - s0[name])
}
