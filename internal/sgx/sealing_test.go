package sgx

import (
	"bytes"
	"errors"
	"testing"

	"montsalvat/internal/cycles"
	"montsalvat/internal/simcfg"
)

func testSecret(t *testing.T) PlatformSecret {
	t.Helper()
	s, err := NewPlatformSecret()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSealUnsealRoundTrip(t *testing.T) {
	e, _ := initializedEnclave(t, []byte("seal image"))
	secret := testSecret(t)
	data := []byte("the enclave's persistent secret state")
	aad := []byte("store-v1")

	for _, policy := range []SealPolicy{SealToMRENCLAVE, SealToMRSIGNER} {
		blob, err := e.Seal(secret, policy, data, aad)
		if err != nil {
			t.Fatalf("Seal(%v): %v", policy, err)
		}
		if bytes.Contains(blob, data) {
			t.Fatalf("sealed blob leaks plaintext (%v)", policy)
		}
		got, err := e.Unseal(secret, policy, blob, aad)
		if err != nil {
			t.Fatalf("Unseal(%v): %v", policy, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("Unseal(%v) = %q", policy, got)
		}
	}
}

func TestUnsealRejectsTamper(t *testing.T) {
	e, _ := initializedEnclave(t, []byte("seal image"))
	secret := testSecret(t)
	blob, err := e.Seal(secret, SealToMRENCLAVE, []byte("data"), nil)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 1
	if _, err := e.Unseal(secret, SealToMRENCLAVE, blob, nil); !errors.Is(err, ErrUnseal) {
		t.Fatalf("err = %v, want ErrUnseal", err)
	}
	// Wrong AAD fails too.
	blob2, _ := e.Seal(secret, SealToMRENCLAVE, []byte("data"), []byte("v1"))
	if _, err := e.Unseal(secret, SealToMRENCLAVE, blob2, []byte("v2")); !errors.Is(err, ErrUnseal) {
		t.Fatalf("wrong aad: %v", err)
	}
	// Truncated blob.
	if _, err := e.Unseal(secret, SealToMRENCLAVE, blob2[:10], nil); !errors.Is(err, ErrUnseal) {
		t.Fatalf("short blob: %v", err)
	}
}

func TestSealBindsEnclaveIdentity(t *testing.T) {
	secret := testSecret(t)
	e1, _ := initializedEnclave(t, []byte("image A"))
	e2, _ := initializedEnclave(t, []byte("image B"))

	blob, err := e1.Seal(secret, SealToMRENCLAVE, []byte("for A only"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// A different enclave image cannot unseal under MRENCLAVE policy.
	if _, err := e2.Unseal(secret, SealToMRENCLAVE, blob, nil); !errors.Is(err, ErrUnseal) {
		t.Fatalf("foreign enclave unsealed: %v", err)
	}
	// But both are signed by the shared test signer: MRSIGNER policy
	// lets the upgraded image unseal.
	blobSigner, err := e1.Seal(secret, SealToMRSIGNER, []byte("for the author"), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e2.Unseal(secret, SealToMRSIGNER, blobSigner, nil)
	if err != nil {
		t.Fatalf("MRSIGNER unseal across versions: %v", err)
	}
	if string(got) != "for the author" {
		t.Fatalf("got %q", got)
	}
}

// TestSealCrossPolicyUpgrade simulates an enclave software upgrade: the
// image (and hence MRENCLAVE) changes while the signing identity stays
// fixed. Sealed state that must survive upgrades is sealed to MRSIGNER;
// MRENCLAVE blobs are pinned to the exact measurement and become
// unrecoverable — by typed error, not an incidental failure.
func TestSealCrossPolicyUpgrade(t *testing.T) {
	secret := testSecret(t)
	v1, _ := initializedEnclave(t, []byte("service v1"))
	v2, _ := initializedEnclave(t, []byte("service v2")) // same signer, new measurement
	if v1.Measurement() == v2.Measurement() {
		t.Fatal("upgrade did not change the measurement")
	}

	aad := []byte("persist/ckpt/1")
	mrenclave, err := v1.Seal(secret, SealToMRENCLAVE, []byte("pinned"), aad)
	if err != nil {
		t.Fatal(err)
	}
	mrsigner, err := v1.Seal(secret, SealToMRSIGNER, []byte("durable"), aad)
	if err != nil {
		t.Fatal(err)
	}

	// Pre-upgrade, both unseal.
	if _, err := v1.Unseal(secret, SealToMRENCLAVE, mrenclave, aad); err != nil {
		t.Fatalf("v1 MRENCLAVE unseal: %v", err)
	}
	// Post-upgrade, the MRENCLAVE blob is lost...
	if _, err := v2.Unseal(secret, SealToMRENCLAVE, mrenclave, aad); !errors.Is(err, ErrUnseal) {
		t.Fatalf("v2 MRENCLAVE unseal: err = %v, want ErrUnseal", err)
	}
	// ...and the MRSIGNER blob survives.
	got, err := v2.Unseal(secret, SealToMRSIGNER, mrsigner, aad)
	if err != nil {
		t.Fatalf("v2 MRSIGNER unseal: %v", err)
	}
	if string(got) != "durable" {
		t.Fatalf("got %q", got)
	}
	// Policies are part of the key derivation: a blob sealed under one
	// policy cannot be opened under the other even on the same enclave.
	if _, err := v1.Unseal(secret, SealToMRSIGNER, mrenclave, aad); !errors.Is(err, ErrUnseal) {
		t.Fatalf("policy confusion: err = %v, want ErrUnseal", err)
	}
}

func TestSealBindsPlatform(t *testing.T) {
	e, _ := initializedEnclave(t, []byte("image"))
	s1 := testSecret(t)
	s2 := testSecret(t)
	blob, err := e.Seal(s1, SealToMRENCLAVE, []byte("local"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Unseal(s2, SealToMRENCLAVE, blob, nil); !errors.Is(err, ErrUnseal) {
		t.Fatalf("cross-platform unseal: %v", err)
	}
}

func TestSealRequiresInit(t *testing.T) {
	clk := cycles.New(simcfg.CPUHz, false)
	e, err := Create(simcfg.ForTest(), clk, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Seal(testSecret(t), SealToMRENCLAVE, []byte("x"), nil); !errors.Is(err, ErrNotInitialized) {
		t.Fatalf("err = %v, want ErrNotInitialized", err)
	}
}
