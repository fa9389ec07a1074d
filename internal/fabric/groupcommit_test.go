package fabric

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestFabricGroupCommitFailover is the failover drill under concurrent
// writers, so puts batch into shared commit groups and shared ship
// rounds: primary killed mid-stream, standby promoted — every
// acknowledged write must be readable afterwards. This is the "acked ⇒
// durable ∧ replicated" invariant holding with the seal, the counter,
// and the ship round off the per-mutation ack path.
func TestFabricGroupCommitFailover(t *testing.T) {
	f, err := New(Options{Shards: 2, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const (
		writers  = 4
		perPhase = 24
	)
	var ackedMu sync.Mutex
	acked := map[string]string{}
	load := func(phase int) {
		var wg sync.WaitGroup
		for wr := 0; wr < writers; wr++ {
			wg.Add(1)
			go func(wr int) {
				defer wg.Done()
				client := f.Client(RouterConfig{})
				defer client.Close()
				for i := 0; i < perPhase; i++ {
					k := fmt.Sprintf("p%d:w%d:k%04d", phase, wr, i)
					v := fmt.Sprintf("v%d-%d-%d", phase, wr, i)
					if err := client.Put(k, v); err != nil {
						continue // unacked writes carry no promise
					}
					ackedMu.Lock()
					acked[k] = v
					ackedMu.Unlock()
				}
			}(wr)
		}
		wg.Wait()
	}

	load(1)
	if err := f.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	load(2) // WAL tail past the checkpoint, shipped by the pump

	exp, err := f.KillShard(1)
	if err != nil {
		t.Fatal(err)
	}
	load(3) // shard 1 dark; shard 0 keeps pipelining
	if err := f.Promote(1, exp); err != nil {
		t.Fatalf("promote after pipelined load: %v", err)
	}
	load(4)

	verify := f.Client(RouterConfig{})
	defer verify.Close()
	ackedMu.Lock()
	defer ackedMu.Unlock()
	if len(acked) == 0 {
		t.Fatal("no writes were acked")
	}
	for k, want := range acked {
		v, ok, err := verify.Get(k)
		if err != nil || !ok || v != want {
			t.Fatalf("acked write lost: %q = (%q, %v, %v), want %q", k, v, ok, err, want)
		}
	}
	if st := f.Stats(); st.Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", st.Promotions)
	}
}

// TestFabricGroupCommitPausedReplicaFallsBack pins the degradation
// contract: a paused (stalled) replica freezes the replication
// watermark, so acks stop flowing through the pipeline — but they are
// not lost. Each stalled waiter degrades to the synchronous ship path
// after SyncFallbackAfter and completes. Once the replica resumes, the
// pipeline catches the
// watermark up and acked writes survive a full failover.
func TestFabricGroupCommitPausedReplicaFallsBack(t *testing.T) {
	f, err := New(Options{
		Shards:            1,
		Replicas:          1,
		SyncFallbackAfter: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	client := f.Client(RouterConfig{})
	defer client.Close()
	acked := map[string]string{}
	put := func(k string) {
		t.Helper()
		if err := client.Put(k, "v-"+k); err != nil {
			t.Fatalf("put %q: %v", k, err)
		}
		acked[k] = "v-" + k
	}

	for i := 0; i < 4; i++ {
		put(fmt.Sprintf("pre:%d", i))
	}

	if err := f.PauseReplication(0, true); err != nil {
		t.Fatal(err)
	}
	// Every one of these must still ack — through the fallback, since
	// the watermark cannot move while the only replica is paused.
	for i := 0; i < 4; i++ {
		put(fmt.Sprintf("stall:%d", i))
	}
	if st := f.Stats(); st.SyncFallbacks < 4 {
		t.Fatalf("sync fallbacks = %d, want >= 4 (one per stalled ack)", st.SyncFallbacks)
	}

	// Resume: the next acked put's watermark wait forces the pump to
	// ship everything the replica missed before that ack leaves.
	if err := f.PauseReplication(0, false); err != nil {
		t.Fatal(err)
	}
	put("resumed")

	exp, err := f.KillShard(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Promote(0, exp); err != nil {
		t.Fatalf("promote after resume: %v", err)
	}
	for k, want := range acked {
		v, ok, err := client.Get(k)
		if err != nil || !ok || v != want {
			t.Fatalf("acked write lost: %q = (%q, %v, %v), want %q", k, v, ok, err, want)
		}
	}
}

// TestFabricGroupCommitStalePromotionRejected keeps the rollback
// defense intact under pipelining: replication pauses, the primary
// keeps acking through the fallback path and seals a checkpoint
// lineage the replica never sees, then dies mid-pipeline with writes
// still in flight. Promoting the stale replica must be refused with
// the typed error — the acked watermark in the expectation includes
// the fallback-acked writes the replica is missing.
func TestFabricGroupCommitStalePromotionRejected(t *testing.T) {
	f, err := New(Options{
		Shards:            1,
		Replicas:          1,
		SyncFallbackAfter: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	client := f.Client(RouterConfig{})
	defer client.Close()
	for i := 0; i < 6; i++ {
		if err := client.Put(fmt.Sprintf("pre:%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}

	if err := f.PauseReplication(0, true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := client.Put(fmt.Sprintf("post:%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Checkpoint(0); err != nil {
		t.Fatal(err)
	}

	// Kill mid-pipeline: background writers still have puts in flight
	// when the primary dies. Their acks either completed (and are part
	// of the expectation) or fail — never silently dropped.
	var wg sync.WaitGroup
	for wr := 0; wr < 2; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			c := f.Client(RouterConfig{})
			defer c.Close()
			for i := 0; i < 16; i++ {
				_ = c.Put(fmt.Sprintf("inflight:%d:%d", wr, i), "v")
			}
		}(wr)
	}
	exp, err := f.KillShard(0)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	err = f.Promote(0, exp)
	if !errors.Is(err, ErrStaleReplica) {
		t.Fatalf("stale promotion: %v, want ErrStaleReplica", err)
	}
	var stale *StaleReplicaError
	if !errors.As(err, &stale) {
		t.Fatalf("stale promotion error is not typed: %v", err)
	}
	if st := f.Stats(); st.StalePromotionsRejected != 1 || st.Promotions != 0 {
		t.Fatalf("stats = %+v, want 1 stale rejection, 0 promotions", st)
	}
}
