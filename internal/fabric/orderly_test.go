package fabric_test

import (
	"errors"
	"reflect"
	"testing"

	"montsalvat/internal/fabric"
	"montsalvat/internal/orderly"
)

// TestFabricMutationUngatedAck plants the bug the replication
// watermark exists to prevent — a put acked without waiting for its
// replica to cover it — and demands the model checker's acked ⇒
// durable ∧ replicated invariant catch it: the minimal reproduction is
// one put, the kill, and the promotion that finds the standby behind
// the acked position. The shrunk trace must be 1-minimal and its seed
// must reproduce the violation.
func TestFabricMutationUngatedAck(t *testing.T) {
	fabric.SetSkipAckGate(true)
	defer fabric.SetSkipAckGate(false)

	res, err := orderly.Explore(orderly.Options{Build: orderly.FabricBuilder(orderly.FabricConfig{}), MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	v := res.Violation
	if v == nil {
		t.Fatal("planted ungated-ack bug not caught")
	}
	if got := invariant(v.Err); got != "acked-replicated" {
		t.Fatalf("violated %q, want acked-replicated (%v)", got, v.Err)
	}
	if want := []string{"put-shard0", "kill-shard", "promote"}; !reflect.DeepEqual(v.Trace, want) {
		t.Fatalf("shrunk trace %v, want %v", v.Trace, want)
	}
	rep, err := orderly.ReplaySeed(orderly.FormatSeed("fabric", v.Trace))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation == nil || invariant(rep.Violation.Err) != "acked-replicated" {
		t.Fatalf("seed %v does not reproduce acked-replicated: %+v", v.Trace, rep.Violation)
	}
}

func invariant(err error) string {
	var ie *orderly.InvariantError
	if errors.As(err, &ie) {
		return ie.Invariant
	}
	return ""
}
