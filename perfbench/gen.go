package main

// gen.go makes every input of a run from the seed: key choices, Zipf
// ranks, put/get mixes and payloads. The program under test receives
// only the generated values; the same seed gives the same inputs.

import (
	"fmt"
	"math/rand/v2"
	"strconv"
)

// valueBytes is the size of every KV value the benchmark writes.
const valueBytes = 64

// zipfS is the Zipf exponent of kv-read key popularity.
const zipfS = 1.1

// newRand returns the generator of one input stream of a run. Streams
// are independent per (seed, stream) pair, so client c of a run draws
// the same sequence whatever the other clients do.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// keyName is the store key of keyspace index i.
func keyName(i int) string { return fmt.Sprintf("k%06d", i) }

// value builds the 64-byte value of version ver of key i. The key index
// is embedded, so a read can be checked against the key it asked for.
func value(i int, ver uint64) string {
	s := fmt.Sprintf("k%06d:v%016x:", i, ver)
	b := make([]byte, valueBytes)
	copy(b, s)
	for j := len(s); j < valueBytes; j++ {
		b[j] = 'a' + byte((uint64(i)+ver+uint64(j))%26)
	}
	return string(b)
}

// valueOK reports whether v is a value this benchmark wrote for key i.
func valueOK(i int, v string) bool {
	if len(v) != valueBytes || v[:9] != keyName(i)+":v" {
		return false
	}
	ver, err := strconv.ParseUint(v[9:25], 16, 64)
	return err == nil && value(i, ver) == v
}

// keyGen draws keyspace indices for one client. Puts stay within the
// client's own stripe (index mod clients == client), so two clients
// never race on a key and every acked value has one last writer; gets
// range over the whole keyspace.
type keyGen struct {
	r       *rand.Rand
	zipf    *rand.Zipf // nil for uniform choice
	keys    int
	clients int
	client  int
}

// newKeyGen builds client's generator over keys indices. With zipf set,
// rank 0 is the hottest key; ranks are scattered over the keyspace by a
// fixed permutation, so the hot keys sit anywhere in the store's bucket
// lists rather than at their fronts, where the preload put the lowest
// indices.
func newKeyGen(seed uint64, client, clients, keys int, zipf bool) *keyGen {
	g := &keyGen{r: newRand(seed, uint64(client)+1), keys: keys, clients: clients, client: client}
	if zipf {
		g.zipf = rand.NewZipf(g.r, zipfS, 1, uint64(keys-1))
	}
	return g
}

// next draws any key index.
func (g *keyGen) next() int {
	if g.zipf == nil {
		return g.r.IntN(g.keys)
	}
	return scatter(int(g.zipf.Uint64()), g.keys)
}

// own maps a drawn index onto the client's stripe.
func (g *keyGen) own(i int) int {
	i = i - i%g.clients + g.client
	if i >= g.keys {
		i -= g.clients
	}
	return i
}

// nextOwn draws a key index in the client's stripe.
func (g *keyGen) nextOwn() int { return g.own(g.next()) }

// chance reports true with probability p.
func (g *keyGen) chance(p float64) bool { return g.r.Float64() < p }

// scatter maps Zipf rank r to a keyspace index: a multiplicative
// permutation of [0, n) with a multiplier coprime to n.
func scatter(r, n int) int {
	m := 7919 // prime; coprime to any keyspace that is not a multiple of it
	for gcd(m, n) != 1 {
		m += 2
	}
	return int((int64(r)*int64(m) + 12345) % int64(n))
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
