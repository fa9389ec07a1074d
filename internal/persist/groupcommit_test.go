package persist

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestGroupCommitConcurrentAppends drives many writers through the
// commit queue and proves the contract: every Append returns a unique
// LSN, the LSN space is dense, batching actually happens (fewer sealed
// frames than records), and a fresh recovery replays every mutation
// out of the batch frames.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	const writers, perWriter = 8, 40
	e := newEnv(t)
	kv := NewMapState("kv")
	// The yield seam holds each leader's window open until a follower
	// queues (bounded at 2ms), so batching is guaranteed rather than a
	// matter of scheduling luck.
	var m *Manager
	m = e.open(Options{
		Dir: "p/",
		Yield: func() {
			deadline := time.Now().Add(2 * time.Millisecond)
			for m.GroupPending() < 2 && time.Now().Before(deadline) {
				runtime.Gosched()
			}
		},
	}, kv)
	if _, err := m.Recover(); err != nil {
		t.Fatal(err)
	}

	var (
		mu   sync.Mutex
		lsns = map[uint64]string{}
		wg   sync.WaitGroup
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := fmt.Sprintf("w%02d-%03d", w, i)
				kv.Put(k, []byte(k))
				lsn, err := m.Append("kv", OpPut, k, []byte(k))
				if err != nil {
					t.Errorf("append %s: %v", k, err)
					return
				}
				mu.Lock()
				if prev, dup := lsns[lsn]; dup {
					t.Errorf("LSN %d returned for both %s and %s", lsn, prev, k)
				}
				lsns[lsn] = k
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	total := writers * perWriter
	if len(lsns) != total {
		t.Fatalf("got %d distinct LSNs, want %d", len(lsns), total)
	}
	// Dense: recovery assigned 1..N before the workload, so the
	// workload's LSNs are exactly a contiguous run.
	var lo, hi uint64
	for lsn := range lsns {
		if lo == 0 || lsn < lo {
			lo = lsn
		}
		if lsn > hi {
			hi = lsn
		}
	}
	if hi-lo+1 != uint64(total) {
		t.Fatalf("LSN range [%d,%d] not dense for %d appends", lo, hi, total)
	}

	st := m.Stats()
	if st.GroupedRecords != uint64(total) {
		t.Fatalf("GroupedRecords = %d, want %d", st.GroupedRecords, total)
	}
	if st.GroupCommits == 0 || st.GroupCommits >= uint64(total) {
		// With a held-open window and 8 concurrent writers, every
		// batch being a singleton would mean no two appends ever
		// overlapped a 2ms window — impossible, since each singleton
		// leader itself holds the window open while others block.
		t.Fatalf("GroupCommits = %d for %d appends: no batching", st.GroupCommits, total)
	}
	t.Logf("batching: %d records in %d commits (mean %.1f)",
		st.GroupedRecords, st.GroupCommits, float64(st.GroupedRecords)/float64(st.GroupCommits))

	// Recovery replays the batch frames (no checkpoint covered them).
	kv2 := NewMapState("kv")
	m2 := e.open(Options{Dir: "p/"}, kv2)
	if _, err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	for _, k := range lsns {
		got, ok := kv2.Get(k)
		if !ok || string(got) != k {
			t.Fatalf("record %q lost across recovery: %q, %v", k, got, ok)
		}
	}
}

// TestGroupCommitAutoCheckpoint proves the auto-checkpoint cadence
// still fires on the batch path (counted per record, not per frame).
func TestGroupCommitAutoCheckpoint(t *testing.T) {
	e := newEnv(t)
	kv := NewMapState("kv")
	m := e.open(Options{Dir: "p/", CheckpointEvery: 4}, kv)
	if _, err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	ckpts := m.Stats().Checkpoints
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("k%d", i)
		kv.Put(k, []byte("v"))
		mustAppend(t, m, "kv", k, "v")
	}
	if got := m.Stats().Checkpoints - ckpts; got != 2 {
		t.Fatalf("auto-checkpoints after 8 grouped appends: %d, want 2", got)
	}
}

// TestGroupCommitUnregisteredState pins that a bad state name fails the
// append (the whole group fails together — acceptable, since an
// unregistered state is a programming error, and in practice every
// group member targets the same state).
func TestGroupCommitUnregisteredState(t *testing.T) {
	e := newEnv(t)
	m := e.open(Options{}, NewMapState("kv"))
	if _, err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Append("nope", OpPut, "k", []byte("v")); err == nil {
		t.Fatal("append to unregistered state accepted")
	}
	if _, err := m.Append("kv", OpPut, "k", []byte("v")); err != nil {
		t.Fatalf("append after failed group: %v", err)
	}
}

// TestWALBatchRoundTrip pins the batch codec.
func TestWALBatchRoundTrip(t *testing.T) {
	recs := []Record{
		{LSN: 7, Op: OpPut, State: "kv", Key: "a", Value: []byte("1")},
		{LSN: 8, Op: OpDelete, State: "kv", Key: "b"},
		{LSN: 9, Op: OpPut, State: "paldb", Key: "", Value: bytes.Repeat([]byte{0xcc}, 300)},
	}
	got, err := DecodeWALBatch(EncodeWALBatch(recs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].LSN != recs[i].LSN || got[i].Op != recs[i].Op || got[i].State != recs[i].State ||
			got[i].Key != recs[i].Key || !bytes.Equal(got[i].Value, recs[i].Value) {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}

	corrupt := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"single-record version", EncodeWALRecord(recs[0])},
		{"zero count", []byte{batchRecordVersion, 0}},
		{"huge count", []byte{batchRecordVersion, 0xff, 0xff, 0xff, 0x7f}},
		{"truncated member", EncodeWALBatch(recs)[:10]},
		{"trailing bytes", append(EncodeWALBatch(recs), 0xAA)},
	}
	for _, tc := range corrupt {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeWALBatch(tc.buf); err == nil {
				t.Fatalf("corrupt batch %x accepted", tc.buf)
			}
		})
	}
}

// FuzzDecodeWALBatch hardens the batch decoder like FuzzDecodeWALRecord
// hardens the single-record one: arbitrary bytes must never panic or
// over-allocate, and a decoded batch must survive a semantic round trip.
func FuzzDecodeWALBatch(f *testing.F) {
	seeds := [][]byte{
		nil,
		{batchRecordVersion},
		{batchRecordVersion, 1},
		EncodeWALBatch([]Record{{LSN: 1, Op: OpPut, State: "kv", Key: "k", Value: []byte("v")}}),
		EncodeWALBatch([]Record{
			{LSN: 5, Op: OpPut, State: "kv", Key: "a", Value: []byte("1")},
			{LSN: 6, Op: OpDelete, State: "kv", Key: "a"},
		}),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeWALBatch(data)
		if err != nil {
			return
		}
		re := EncodeWALBatch(recs)
		recs2, err := DecodeWALBatch(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(recs2) != len(recs) {
			t.Fatalf("round trip count: %d != %d", len(recs2), len(recs))
		}
		for i := range recs {
			if recs2[i].LSN != recs[i].LSN || recs2[i].Op != recs[i].Op ||
				recs2[i].State != recs[i].State || recs2[i].Key != recs[i].Key ||
				!bytes.Equal(recs2[i].Value, recs[i].Value) {
				t.Fatalf("round trip record %d: %+v != %+v", i, recs2[i], recs[i])
			}
		}
	})
}
