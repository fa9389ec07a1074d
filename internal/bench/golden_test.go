package bench

import (
	"math"
	"testing"
)

// TestDispatchLedgerGolden pins the exact virtual-cycle ledger of the
// boundary dispatch experiments at quick scale: every dispatch mode's
// cycles and transitions, both switchless-ablation rows, and the
// ring-sweep frame/ring cycles per op. The shape tests only bound
// ratios; this one fails on any change to what a route charges, so a
// refactor of the dispatch layer must leave these integers untouched.
// The ledger is a function of the call sequence, not of scheduling, so
// the figures hold on any core count.
func TestDispatchLedgerGolden(t *testing.T) {
	opts := quickOpts()

	want := map[string]dispatchRun{
		"full transitions":   {Cycles: 7_684_595, Transitions: 501},
		"switchless":         {Cycles: 1_722_695, Transitions: 501},
		"batched":            {Cycles: 625_659, Transitions: 17},
		"batched+switchless": {Cycles: 423_359, Transitions: 17},
	}
	for _, mode := range dispatchModes {
		got, err := runDispatchMode(opts, mode.Switchless, mode.Batching, opts.scale(20_000, 500))
		if err != nil {
			t.Fatalf("%s: %v", mode.Name, err)
		}
		if got != want[mode.Name] {
			t.Errorf("dispatch %q = %+v, want %+v", mode.Name, got, want[mode.Name])
		}
	}

	// The switchless ablation reports virtual seconds; compare them as
	// whole nanoseconds of the cycle clock.
	sw, err := AblationSwitchless(opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, wantNS := range map[string][]int64{
		"regular ecall/ocall": {2_018_404, 1_418_930},
		"switchless":          {452_614, 445_246},
	} {
		row, ok := sw.Row(name)
		if !ok {
			t.Fatalf("ablation-switchless: no row %q", name)
		}
		for i, v := range row.Values {
			if got := int64(math.Round(v * 1e9)); got != wantNS[i] {
				t.Errorf("ablation-switchless %q col %d = %d ns, want %d", name, i, got, wantNS[i])
			}
		}
	}

	rs, err := RingSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, wantCycles := range map[string][]float64{
		"frame-path": {3505, 7538, 68979},
		"ring-path":  {2694, 4711, 35432},
	} {
		row, ok := rs.Row(name)
		if !ok {
			t.Fatalf("ring-sweep: no row %q", name)
		}
		for i, v := range row.Values {
			if v != wantCycles[i] {
				t.Errorf("ring-sweep %q at %s B = %v cycles/op, want %v", name, rs.Columns[i], v, wantCycles[i])
			}
		}
	}
}
