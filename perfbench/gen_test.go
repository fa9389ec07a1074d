package main

import (
	"slices"
	"testing"

	"montsalvat/internal/wire"
)

// draws returns n (any, own) key pairs from a fresh generator.
func draws(seed uint64, client int, zipf bool, n int) []int {
	g := newKeyGen(seed, client, clients, kvKeys, zipf)
	out := make([]int, 0, 2*n)
	for range n {
		out = append(out, g.next(), g.nextOwn())
	}
	return out
}

func TestKeyGenDeterministicPerSeed(t *testing.T) {
	for _, zipf := range []bool{false, true} {
		a, b := draws(7, 1, zipf, 1000), draws(7, 1, zipf, 1000)
		if !slices.Equal(a, b) {
			t.Errorf("zipf=%v: the same seed drew different keys", zipf)
		}
		if slices.Equal(a, draws(8, 1, zipf, 1000)) {
			t.Errorf("zipf=%v: seeds 7 and 8 drew the same keys", zipf)
		}
		if slices.Equal(a, draws(7, 0, zipf, 1000)) {
			t.Errorf("zipf=%v: clients 0 and 1 drew the same keys", zipf)
		}
	}
}

func TestKeyGenRangeAndStripe(t *testing.T) {
	for c := range clients {
		g := newKeyGen(3, c, clients, kvKeys, true)
		for range 5000 {
			if i := g.next(); i < 0 || i >= kvKeys {
				t.Fatalf("key %d outside the keyspace", i)
			}
			if i := g.nextOwn(); i < 0 || i >= kvKeys || i%clients != c {
				t.Fatalf("client %d drew key %d outside its stripe", c, i)
			}
		}
	}
	// The stripe mapping stays inside a keyspace that is not a multiple
	// of the client count.
	g := &keyGen{keys: 9, clients: 2, client: 1}
	if got := g.own(8); got != 7 {
		t.Errorf("own(8) in a keyspace of 9 = %d, want 7", got)
	}
}

func TestZipfSkew(t *testing.T) {
	g := newKeyGen(11, 0, clients, kvKeys, true)
	counts := map[int]int{}
	const n = 20000
	for range n {
		counts[g.next()]++
	}
	hot := scatter(0, kvKeys)
	for k, c := range counts {
		if c > counts[hot] {
			t.Fatalf("key %d drawn %d times, more than the rank-0 key %d (%d)", k, c, hot, counts[hot])
		}
	}
	if counts[hot] < n/20 {
		t.Errorf("rank-0 key drawn %d of %d times; the mix is not skewed", counts[hot], n)
	}
	u := newKeyGen(11, 0, clients, kvKeys, false)
	uc := map[int]int{}
	for range n {
		uc[u.next()]++
	}
	if len(uc) < len(counts)*2 {
		t.Errorf("uniform draws hit %d keys, Zipf draws %d", len(uc), len(counts))
	}
}

func TestScatterIsAPermutation(t *testing.T) {
	for _, n := range []int{kvKeys, 7919 * 2, 97} {
		seen := make([]bool, n)
		for r := range n {
			i := scatter(r, n)
			if seen[i] {
				t.Fatalf("n=%d: index %d hit twice", n, i)
			}
			seen[i] = true
		}
	}
}

func TestValueEncodesItsKey(t *testing.T) {
	v := value(42, 1<<40|7)
	if len(v) != valueBytes {
		t.Fatalf("value is %d bytes, want %d", len(v), valueBytes)
	}
	if !valueOK(42, v) {
		t.Error("valueOK rejected a value written for its key")
	}
	if valueOK(43, v) {
		t.Error("valueOK accepted a value written for another key")
	}
	if valueOK(42, v[:63]+"!") {
		t.Error("valueOK accepted a corrupted value")
	}
}

func TestListClassesExactPerBlock(t *testing.T) {
	cs := newRMIClients(5)
	counts := map[listClass]int{}
	var order []listClass
	for range 3 * listBlock {
		_, lc := cs[0].next()
		counts[lc]++
		order = append(order, lc)
	}
	if counts[listOver] != 3 || counts[listLarge] != 30 || counts[listSmall] != 267 {
		t.Errorf("three blocks hold %v", counts)
	}
	again := newRMIClients(5)
	for i, want := range order {
		if _, lc := again[0].next(); lc != want {
			t.Fatalf("lifecycle %d: class %v, then %v, with the same seed", i, want, lc)
		}
	}
}

func TestIntListSizes(t *testing.T) {
	r := newRand(1, 0)
	for _, n := range []int{smallListBytes, largeListBytes, overListBytes} {
		l := intList(r, n)
		vs, _ := l.AsList()
		size := 0
		for _, v := range vs {
			size += wire.Size(v)
		}
		if size < n || size > n+16 {
			t.Errorf("intList(%d) encodes its elements in %d bytes", n, size)
		}
	}
}
