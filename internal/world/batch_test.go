package world_test

import (
	"errors"
	"testing"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/demo"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// batchingWorld builds the partitioned bank app with transition batching
// enabled (and optionally switchless-rate transitions).
func batchingWorld(t *testing.T, switchless bool) *world.World {
	t.Helper()
	opts := world.DefaultOptions()
	opts.Cfg.Batching = true
	opts.Cfg.Switchless = switchless
	w, _, err := core.NewPartitionedWorld(demo.MustBankProgram(), opts)
	if err != nil {
		t.Fatalf("NewPartitionedWorld: %v", err)
	}
	t.Cleanup(w.Close)
	return w
}

// TestBatchOrderingPreserved: queued void calls (ctor + updates) must be
// applied in submission order before a result-dependent call observes
// the object.
func TestBatchOrderingPreserved(t *testing.T) {
	w := batchingWorld(t, false)
	err := w.Exec(false, func(env classmodel.Env) error {
		acct, err := env.New(demo.Account, wire.Str("Ada"), wire.Int(100))
		if err != nil {
			return err
		}
		// All void: the ctor and the updates ride the queue together.
		for _, delta := range []int64{10, -30, 5} {
			if _, err := env.Call(acct, "updateBalance", wire.Int(delta)); err != nil {
				return err
			}
		}
		bal, err := env.Call(acct, "getBalance")
		if err != nil {
			return err
		}
		if !bal.Equal(wire.Int(85)) {
			t.Errorf("balance = %v, want 85 (ctor before updates, in order)", bal)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := w.DispatchStats()
	if ds.BatchFlushes == 0 || ds.BatchedCalls < 4 {
		t.Fatalf("no batching happened: %+v", ds)
	}
}

// TestBatchFlushOnResultDependency: result-independent calls coalesce
// into one transition, flushed only when a result-dependent call needs
// their effects — strictly fewer ecalls than unbatched dispatch.
func TestBatchFlushOnResultDependency(t *testing.T) {
	const updates = 8
	run := func(w *world.World) uint64 {
		before := w.Stats().Enclave.Ecalls
		err := w.Exec(false, func(env classmodel.Env) error {
			acct, err := env.New(demo.Account, wire.Str("Bo"), wire.Int(0))
			if err != nil {
				return err
			}
			for i := 0; i < updates; i++ {
				if _, err := env.Call(acct, "updateBalance", wire.Int(1)); err != nil {
					return err
				}
			}
			bal, err := env.Call(acct, "getBalance")
			if err != nil {
				return err
			}
			if !bal.Equal(wire.Int(updates)) {
				t.Errorf("balance = %v, want %d", bal, updates)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Stats().Enclave.Ecalls - before
	}

	batched := run(batchingWorld(t, false))
	full := run(bankWorld(t))
	// Batched: one frame ecall (ctor + 8 updates) plus the getBalance
	// ecall. Full dispatch pays one transition per call.
	if batched != 2 {
		t.Fatalf("batched ecalls = %d, want 2 (one frame + one get)", batched)
	}
	if full != updates+2 {
		t.Fatalf("full ecalls = %d, want %d", full, updates+2)
	}
}

// TestBatchErrorDoesNotCorruptLaterCalls: a failing call in the middle
// of a batch surfaces at the flush, and calls after it still run.
func TestBatchErrorDoesNotCorruptLaterCalls(t *testing.T) {
	w := batchingWorld(t, false)
	err := w.Exec(false, func(env classmodel.Env) error {
		stale, err := env.New(demo.Account, wire.Str("Eve"), wire.Int(1))
		if err != nil {
			return err
		}
		good, err := env.New(demo.Account, wire.Str("Flo"), wire.Int(1))
		if err != nil {
			return err
		}
		// Materialize both mirrors, then kill Eve's.
		if err := w.Flush(); err != nil {
			return err
		}
		_, staleHash, _ := stale.AsRef()
		if _, err := w.Trusted().Registry().Release(staleHash); err != nil {
			return err
		}

		// Queue a doomed call before a good one.
		if _, err := env.Call(stale, "updateBalance", wire.Int(5)); err != nil {
			return err
		}
		if _, err := env.Call(good, "updateBalance", wire.Int(5)); err != nil {
			return err
		}
		flushErr := w.Flush()
		if !errors.Is(flushErr, world.ErrStaleMirror) {
			t.Errorf("flush err = %v, want ErrStaleMirror", flushErr)
		}
		// The call after the failing one was still applied.
		bal, err := env.Call(good, "getBalance")
		if err != nil {
			return err
		}
		if !bal.Equal(wire.Int(6)) {
			t.Errorf("balance = %v, want 6 (later batched call applied)", bal)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCloseFlushesPendingBatch: World.Close drains queued calls before
// tearing the enclave down.
func TestCloseFlushesPendingBatch(t *testing.T) {
	opts := world.DefaultOptions()
	opts.Cfg.Batching = true
	w, _, err := core.NewPartitionedWorld(demo.MustBankProgram(), opts)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Exec(false, func(env classmodel.Env) error {
		acct, err := env.New(demo.Account, wire.Str("Gil"), wire.Int(0))
		if err != nil {
			return err
		}
		_, err = env.Call(acct, "updateBalance", wire.Int(3))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds := w.DispatchStats(); ds.PendingCalls == 0 {
		t.Fatalf("nothing pending before Close: %+v", ds)
	}
	w.Close()
	ds := w.DispatchStats()
	if ds.PendingCalls != 0 {
		t.Fatalf("Close left %d pending calls", ds.PendingCalls)
	}
	if ds.BatchFlushes == 0 || ds.BatchedCalls != 2 {
		t.Fatalf("Close did not flush the queue: %+v", ds)
	}
}

// TestExplicitWorldFlush: World.Flush drains the queues on demand and
// the effects are immediately visible on the trusted side.
func TestExplicitWorldFlush(t *testing.T) {
	w := batchingWorld(t, false)
	err := w.Exec(false, func(env classmodel.Env) error {
		if _, err := env.New(demo.Account, wire.Str("Hal"), wire.Int(9)); err != nil {
			return err
		}
		if w.Trusted().Registry().Size() != 0 {
			t.Error("ctor crossed the boundary before any flush")
		}
		if err := w.Flush(); err != nil {
			return err
		}
		if got := w.Trusted().Registry().Size(); got != 1 {
			t.Errorf("registry size after Flush = %d, want 1", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil { // empty flush is a no-op
		t.Fatal(err)
	}
	if ds := w.DispatchStats(); ds.BatchFlushes != 1 {
		t.Fatalf("flushes = %d, want 1 (empty flush must not count)", ds.BatchFlushes)
	}
}

// TestSweepBatchesReleases: with batching on, the GC sweep coalesces all
// mirror releases into a single batched transition.
func TestSweepBatchesReleases(t *testing.T) {
	w := batchingWorld(t, false)
	if _, err := w.RunMain(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := w.Trusted().Registry().Size(); got != 3 {
		t.Fatalf("registry size after main = %d, want 3", got)
	}
	if err := w.Untrusted().Collect(); err != nil {
		t.Fatal(err)
	}
	before := w.Stats().Enclave.Ecalls
	if err := w.SweepOnce(w.Untrusted()); err != nil {
		t.Fatal(err)
	}
	if got := w.Trusted().Registry().Size(); got != 0 {
		t.Fatalf("registry size after sweep = %d, want 0", got)
	}
	if got := w.Stats().Enclave.Ecalls - before; got != 1 {
		t.Fatalf("sweep used %d ecalls, want 1 batched frame", got)
	}
}

// TestSwitchlessEndToEnd: with Switchless on, every proxy-call
// transition is charged at the switchless rate and counted as such.
func TestSwitchlessEndToEnd(t *testing.T) {
	w := batchingWorld(t, true)
	result, err := w.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	wantBankResult(t, result)
	ds := w.DispatchStats()
	if ds.FullCalls != 0 || ds.SwitchlessCalls == 0 {
		t.Fatalf("want only switchless transitions: %+v", ds)
	}
}
