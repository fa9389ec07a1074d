package boundary

import (
	"math"
	"testing"
)

// TestBufPoolClassification pins the class mapping on both sides of
// the pool: Get draws from the smallest covering class, Put re-files by
// CURRENT capacity — so a buffer grown by append since it was borrowed
// lands in the class it can actually serve, never back in its origin
// class.
func TestBufPoolClassification(t *testing.T) {
	for _, tc := range []struct {
		capacity int
		wantGet  int // class index Get draws from
		wantPut  int // class index Put files into
	}{
		{capacity: 1, wantGet: 0, wantPut: -1},
		{capacity: 256, wantGet: 0, wantPut: 0},
		{capacity: 257, wantGet: 1, wantPut: 0},
		{capacity: 4096, wantGet: 1, wantPut: 1},
		{capacity: 5000, wantGet: 2, wantPut: 1},
		{capacity: 65536, wantGet: 2, wantPut: 2},
		{capacity: 65537, wantGet: 3, wantPut: 2},
		{capacity: 1 << 20, wantGet: 3, wantPut: 3},
		{capacity: 1<<20 + 1, wantGet: -1, wantPut: 3},
	} {
		if got := getClass(tc.capacity); got != tc.wantGet {
			t.Errorf("getClass(%d) = %d, want %d", tc.capacity, got, tc.wantGet)
		}
		if got := putClass(tc.capacity); got != tc.wantPut {
			t.Errorf("putClass(%d) = %d, want %d", tc.capacity, got, tc.wantPut)
		}
	}
}

// TestBufPoolGrownBufferReclassified is the grow-then-put audit case: a
// buffer borrowed from the 256 class that grew to 8 KiB under append
// must come back out of a larger class, with its full capacity.
func TestBufPoolGrownBufferReclassified(t *testing.T) {
	p := NewBufPool()
	buf := p.Get(100)                        // 256 class
	buf = append(buf, make([]byte, 8192)...) // growth reallocates past 4096
	grownCap := cap(buf)
	if grownCap < 8192 {
		t.Fatalf("append did not grow: cap=%d", grownCap)
	}
	p.Put(buf)
	// The grown buffer must satisfy a request its origin class could not.
	again := p.Get(5000)
	if cap(again) < 5000 {
		t.Fatalf("Get(5000) after grown Put: cap=%d", cap(again))
	}
}

func TestBufPoolStats(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race; hit counts are exact only without it")
	}
	p := NewBufPool()
	if s := p.Stats(); s.Hits != 0 || s.Misses != 0 || s.MissRate() != 0 {
		t.Fatalf("fresh pool stats %+v", s)
	}
	b1 := p.Get(100) // empty class: miss
	p.Put(b1)
	p.Get(100)              // recycled: hit
	p.Get(maxPooledCap + 1) // beyond largest class: miss
	s := p.Stats()
	if s.Hits != 1 || s.Misses != 2 {
		t.Fatalf("stats %+v, want 1 hit / 2 misses", s)
	}
	if got := s.MissRate(); got < 0.66 || got > 0.67 {
		t.Fatalf("miss rate %f, want 2/3", got)
	}
}

// TestBufPoolIdleMissRateZero pins the idle-gauge contract: before any
// Get — and again right after a stats reset — MissRate is exactly 0,
// never NaN. The world telemetry collector exports this value scaled to
// basis points; a NaN here would convert to a garbage gauge sample.
func TestBufPoolIdleMissRateZero(t *testing.T) {
	p := NewBufPool()
	if r := p.Stats().MissRate(); r != 0 || math.IsNaN(r) {
		t.Fatalf("idle miss rate = %v, want exactly 0", r)
	}
	if bps := int64(p.Stats().MissRate() * 10000); bps != 0 {
		t.Fatalf("idle miss-rate gauge = %d bps, want 0", bps)
	}
}

// TestBufPoolResetStats: the reset hook gives benchmarks clean per-run
// numbers — counters return to zero (and MissRate to 0, not NaN) while
// pooled buffers stay warm.
func TestBufPoolResetStats(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race; hit counts are exact only without it")
	}
	p := NewBufPool()
	b := p.Get(100) // miss
	p.Put(b)
	b = p.Get(100) // hit
	p.Put(b)
	if s := p.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("pre-reset stats %+v", s)
	}
	p.ResetStats()
	s := p.Stats()
	if s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("post-reset stats %+v, want zeros", s)
	}
	if r := s.MissRate(); r != 0 || math.IsNaN(r) {
		t.Fatalf("post-reset miss rate = %v, want exactly 0", r)
	}
	// The pool itself was not drained: the buffer recycled before the
	// reset still serves the next Get as a hit.
	p.Get(100)
	if s := p.Stats(); s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("post-reset traffic stats %+v, want 1 hit", s)
	}
}
