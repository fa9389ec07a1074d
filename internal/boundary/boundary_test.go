package boundary

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"montsalvat/internal/cycles"
	"montsalvat/internal/ring"
	"montsalvat/internal/sgx"
	"montsalvat/internal/simcfg"
	"montsalvat/internal/telemetry"
)

// fakeTransport counts full transitions without charging anything.
type fakeTransport struct {
	mu     sync.Mutex
	ecalls map[int]int
	ocalls map[int]int
}

func newFakeTransport() *fakeTransport {
	return &fakeTransport{ecalls: make(map[int]int), ocalls: make(map[int]int)}
}

func (t *fakeTransport) Ecall(id int, fn func() error) error {
	t.mu.Lock()
	t.ecalls[id]++
	t.mu.Unlock()
	return fn()
}

func (t *fakeTransport) Ocall(id int, fn func() error) error {
	t.mu.Lock()
	t.ocalls[id]++
	t.mu.Unlock()
	return fn()
}

func TestDispatcherFullWithoutPools(t *testing.T) {
	tr := newFakeTransport()
	d := NewDispatcher(tr, nil, false)
	if err := d.Invoke(true, 1, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := d.Invoke(false, 2, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if tr.ecalls[1] != 1 || tr.ocalls[2] != 1 {
		t.Fatalf("transport counts: %v %v", tr.ecalls, tr.ocalls)
	}
	st := d.Stats()
	if st.FullCalls != 2 || st.SwitchlessCalls != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDispatcherSwitchlessChargePolicy: under Config.Switchless every
// transition takes the regular enclave path, is charged exactly
// SwitchlessCallCycles, is traced as route "switchless", and counts as
// a switchless call.
func TestDispatcherSwitchlessChargePolicy(t *testing.T) {
	cfg := simcfg.ForTest()
	cfg.Switchless = true
	clk := cycles.New(simcfg.CPUHz, false)
	e, err := sgx.Create(cfg, clk, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddPages([]byte("switchless policy image")); err != nil {
		t.Fatal(err)
	}
	signer, err := sgx.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	ss, err := signer.Sign(e.Measurement())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Init(ss); err != nil {
		t.Fatal(err)
	}

	d := NewDispatcher(e, clk, true)
	tracer := telemetry.NewTracer(1, 16, 1)
	const calls = 4
	for i := 0; i < calls; i++ {
		sp := tracer.StartRoot("ecall")
		var body int64
		before := clk.Total()
		err := d.InvokeSpan(true, 1, sp, func() error {
			// The nested ocall is one more switchless transition.
			inner := clk.Total()
			err := d.InvokeSpan(false, 2, nil, func() error { return nil })
			body = clk.Total() - inner
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := clk.Total() - before; got != 2*simcfg.SwitchlessCallCycles {
			t.Fatalf("call %d charged %d cycles, want 2 x %d", i, got, simcfg.SwitchlessCallCycles)
		}
		if body != simcfg.SwitchlessCallCycles {
			t.Fatalf("ocall charged %d cycles, want %d", body, simcfg.SwitchlessCallCycles)
		}
		if sp.Route != "switchless" || sp.BodyCycles != body {
			t.Fatalf("span route %q body %d, want switchless / %d", sp.Route, sp.BodyCycles, body)
		}
	}
	st := d.Stats()
	if st.SwitchlessCalls != 2*calls || st.FullCalls != 0 {
		t.Fatalf("stats = %+v, want %d switchless calls", st, 2*calls)
	}
	if es := e.Stats(); es.Ecalls+es.Ocalls != st.SwitchlessCalls {
		t.Fatalf("enclave made %d transitions, dispatcher counted %d", es.Ecalls+es.Ocalls, st.SwitchlessCalls)
	}
}

func TestDispatcherPropagatesBodyError(t *testing.T) {
	tr := newFakeTransport()
	d := NewDispatcher(tr, nil, true)
	boom := errors.New("boom")
	if err := d.Invoke(true, 1, func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// A body error is the call's result: no retry on another route.
	if st := d.Stats(); st.SwitchlessCalls != 1 || tr.ecalls[1] != 1 {
		t.Fatalf("stats = %+v, transport %v", st, tr.ecalls)
	}
}

func TestDispatcherClose(t *testing.T) {
	handler := func(id int, req, resp []byte, sp *telemetry.Span) ([]byte, bool, error) {
		return nil, false, nil
	}
	clk := cycles.New(simcfg.CPUHz, false)
	var groups [2]*ring.Group
	for i := range groups {
		g, err := ring.NewGroup(ring.Config{Workers: 1}, clk, handler, nil)
		if err != nil {
			t.Fatal(err)
		}
		groups[i] = g
	}
	d := NewDispatcher(newFakeTransport(), nil, false)
	d.UseRings(groups[0], groups[1])
	d.Close()
	for _, in := range []bool{true, false} {
		ran, err := d.InvokeRing(in, 1, 1, nil, func(slot []byte) ([]byte, error) {
			return append(slot, 0), nil
		}, nil)
		if ran || err != nil {
			t.Fatalf("in=%v: ring carried a call after Close (ran=%v err=%v)", in, ran, err)
		}
	}
	if rs := d.RingStats(); rs.RingFallbacks != 2 {
		t.Fatalf("ring stats = %+v, want 2 fallbacks", rs)
	}
}

func TestQueueOrderAndWatermark(t *testing.T) {
	var got []int64
	var batches []int
	q := NewQueue(4, func(es []Entry) error {
		batches = append(batches, len(es))
		for _, e := range es {
			got = append(got, e.Hash)
		}
		return nil
	})
	for i := 0; i < 10; i++ {
		if err := q.Enqueue(Entry{Hash: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, h := range got {
		if h != int64(i) {
			t.Fatalf("order broken at %d: %v", i, got)
		}
	}
	if len(batches) != 3 || batches[0] != 4 || batches[1] != 4 || batches[2] != 2 {
		t.Fatalf("batches = %v, want [4 4 2]", batches)
	}
	if st := q.Stats(); st.Flushes != 3 || st.BatchedCalls != 10 {
		t.Fatalf("stats = %+v", st)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after flush", q.Len())
	}
}

func TestQueueFlushEmptyIsNoop(t *testing.T) {
	q := NewQueue(4, func(es []Entry) error { return errors.New("must not run") })
	if err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.Flushes != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestQueueConcurrentEnqueueKeepsAllCalls(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[int64]bool)
	q := NewQueue(8, func(es []Entry) error {
		mu.Lock()
		defer mu.Unlock()
		for _, e := range es {
			if seen[e.Hash] {
				return fmt.Errorf("hash %d flushed twice", e.Hash)
			}
			seen[e.Hash] = true
		}
		return nil
	})
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := q.Enqueue(Entry{Hash: int64(w*per + i)}); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != workers*per {
		t.Fatalf("flushed %d calls, want %d", len(seen), workers*per)
	}
}

func TestBufPoolReuse(t *testing.T) {
	p := NewBufPool()
	buf := p.Get(100)
	if len(buf) != 0 || cap(buf) < 100 {
		t.Fatalf("Get: len=%d cap=%d", len(buf), cap(buf))
	}
	buf = append(buf, 1, 2, 3)
	p.Put(buf)
	again := p.Get(2)
	if len(again) != 0 {
		t.Fatalf("recycled buffer not reset: len=%d", len(again))
	}
	// Oversized buffers are dropped rather than pinned.
	p.Put(make([]byte, 0, maxPooledCap+1))
	p.Put(nil)
}

func TestBufPoolSizeClasses(t *testing.T) {
	p := NewBufPool()
	// A buffer recycled into a small class must not satisfy a larger
	// request with insufficient capacity.
	p.Put(make([]byte, 0, 256))
	big := p.Get(10000)
	if cap(big) < 10000 {
		t.Fatalf("Get(10000): cap=%d", cap(big))
	}
	// Each class hands back at least its class size, so repeated small
	// requests reuse one allocation.
	for want, n := range map[int]int{256: 1, 4096: 300, 65536: 5000, 1 << 20: 70000} {
		buf := p.Get(n)
		if cap(buf) < want {
			t.Fatalf("Get(%d): cap=%d, want >= %d", n, cap(buf), want)
		}
		p.Put(buf)
		if again := p.Get(n); cap(again) < n {
			t.Fatalf("recycled Get(%d): cap=%d", n, cap(again))
		}
	}
	// Beyond the largest class: exact allocation, never pooled.
	huge := p.Get(maxPooledCap + 1)
	if cap(huge) < maxPooledCap+1 {
		t.Fatalf("huge Get: cap=%d", cap(huge))
	}
	p.Put(huge)
}
