package main

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestClosedLoopCountsEveryOp(t *testing.T) {
	var n atomic.Int64
	lr := closedLoop(clients, 50*time.Millisecond, func(c int) (opKind, error) {
		time.Sleep(time.Millisecond)
		switch k := n.Add(1); {
		case k%10 == 0:
			return opGet, wrongf("client %d: bad value", c)
		case k%7 == 0:
			return opPut, errors.New("refused")
		case k%2 == 0:
			return opGet, nil
		}
		return opPut, nil
	})
	if lr.attempted != int(n.Load()) {
		t.Errorf("attempted %d, ops run %d", lr.attempted, n.Load())
	}
	if len(lr.lat)+lr.failed != lr.attempted || len(lr.kinds) != len(lr.lat) {
		t.Errorf("%d completed + %d failed != %d attempted", len(lr.lat), lr.failed, lr.attempted)
	}
	if lr.wrong == 0 || lr.wrong > lr.failed || lr.firstErr == nil {
		t.Errorf("wrong %d, failed %d, first error %v", lr.wrong, lr.failed, lr.firstErr)
	}
	if lr.count(opPut)+lr.count(opGet) != len(lr.lat) || len(lr.latOf(opGet)) != lr.count(opGet) {
		t.Error("per-kind counts do not add up")
	}
	if lr.elapsed < 50*time.Millisecond {
		t.Errorf("phase ended after %v", lr.elapsed)
	}

	var all loopResult
	all.merge(lr)
	all.merge(lr)
	if all.attempted != 2*lr.attempted || len(all.lat) != 2*len(lr.lat) || all.elapsed != 2*lr.elapsed {
		t.Errorf("merge of two phases: %d attempted, %d completed, %v", all.attempted, len(all.lat), all.elapsed)
	}
}
