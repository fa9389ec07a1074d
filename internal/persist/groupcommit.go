package persist

import (
	"fmt"
	"runtime"
)

// Group commit (DESIGN.md §16) is the only append path. Every durable
// mutation pays three fixed costs: one AES-GCM seal, one segment
// append, and — amortised across checkpoints — one counter advance.
// Under concurrent writers those costs serialise on m.mu, so the commit
// queue takes them off the per-mutation path: concurrent Append callers
// park on the queue, one of them (the leader) drains it into a single
// batch WAL record — one seal, one append — and wakes every member with
// its LSN. A lone writer is simply a leader whose batch holds one
// record.
//
// Protocol:
//
//  1. A caller enqueues a commitReq. If no leader is active it becomes
//     the leader; otherwise it blocks on its done channel.
//  2. The leader holds the commit window open once per leadership term
//     for a single scheduler yield, so runnable writers reach the queue
//     (a cooperative window: batching without timer latency), then
//     drains up to maxGroupRecords / maxGroupBytes of the queue,
//     assigns consecutive LSNs under m.mu, seals the batch once,
//     appends the frame once, and distributes results.
//  3. The leader keeps draining until the queue is empty, then resigns.
//     Later drains of the same term never re-open the window: members
//     already parked must not pay it twice.
//
// A caller's Append returns only after its record is sealed and
// appended, and a crash anywhere in the batch protocol fails every
// member of the group (the crash matrix covers every point).

// Commit-batch bounds. A batch never exceeds maxGroupRecords records,
// and stops growing once its key+value payload reaches maxGroupBytes.
const (
	maxGroupRecords = 64
	maxGroupBytes   = 256 << 10
)

// commitReq is one parked mutation on the commit queue. The committing
// leader fills lsn and err, then closes done. done is nil for the
// leader's own request (it commits it itself) and for mutations
// enqueued through GroupEnqueue (nobody is parked on them; they are
// acked by the GroupFlush that commits them).
type commitReq struct {
	op    Op
	state string
	key   string
	value []byte
	lsn   uint64
	err   error
	done  chan struct{}
}

// Append journals one mutation against the named state and returns
// its LSN. The record is durable (sealed and written to the active
// segment) when Append returns; the caller acks its client only after
// that. Mutations must be applied to the in-enclave state by the
// caller — the journal does not echo them back outside recovery.
//
// The call routes through the commit queue: it may park while a
// leader drains the queue, and several callers' records land in one
// sealed batch frame.
func (m *Manager) Append(state string, op Op, key string, value []byte) (uint64, error) {
	req := &commitReq{op: op, state: state, key: key, value: value}
	m.queueMu.Lock()
	m.pending = append(m.pending, req)
	if m.leading {
		req.done = make(chan struct{})
		m.queueMu.Unlock()
		<-req.done
		return req.lsn, req.err
	}
	m.leading = true
	m.queueMu.Unlock()
	m.lead()
	return req.lsn, req.err
}

// lead drains the queue batch by batch until it is empty, then
// resigns. The window is held at most once per term, and only when
// the queue is not already full.
func (m *Manager) lead() {
	windowed := false
	for {
		if !windowed {
			windowed = true
			m.queueMu.Lock()
			full := len(m.pending) >= maxGroupRecords
			m.queueMu.Unlock()
			if !full {
				m.yield()
			}
		}
		m.queueMu.Lock()
		batch := m.takeLocked()
		if batch == nil {
			m.leading = false
			m.queueMu.Unlock()
			return
		}
		m.queueMu.Unlock()
		m.commit(batch)
	}
}

// yield holds the commit window open for one scheduler yield: on a
// saturated core the runnable writers enqueue during it, so batches
// form without any timer latency on the ack path. Options.Yield
// replaces it for deterministic drivers.
func (m *Manager) yield() {
	if m.yieldFn != nil {
		m.yieldFn()
		return
	}
	runtime.Gosched()
}

// takeLocked slices one batch off the queue, bounded by
// maxGroupRecords and maxGroupBytes (always at least one request).
// Caller holds m.queueMu.
func (m *Manager) takeLocked() []*commitReq {
	if len(m.pending) == 0 {
		return nil
	}
	n, bytes := 0, 0
	for n < len(m.pending) && n < maxGroupRecords {
		bytes += len(m.pending[n].key) + len(m.pending[n].value)
		n++
		if bytes >= maxGroupBytes {
			break
		}
	}
	batch := m.pending[:n:n]
	m.pending = append([]*commitReq(nil), m.pending[n:]...)
	return batch
}

// commit journals one batch under m.mu and wakes every parked member.
func (m *Manager) commit(batch []*commitReq) error {
	m.mu.Lock()
	lsns, err := m.commitGroupLocked(batch)
	m.mu.Unlock()
	for i, req := range batch {
		if err != nil {
			req.err = err
		} else {
			req.lsn = lsns[i]
		}
		if req.done != nil {
			close(req.done)
		}
	}
	return err
}

// GroupEnqueue parks one mutation on the commit queue without electing
// a leader or blocking: the caller holds no durability promise for it
// until a later GroupFlush (or a concurrent Append's leadership term)
// commits the batch it lands in. This is the explorable half of the
// group-commit protocol — a deterministic driver enqueues writes and
// closes the window as two separate, synchronous actions, so every
// interleaving of "mutation enqueued" and "window closed" is a distinct
// schedule rather than a race inside Append.
func (m *Manager) GroupEnqueue(state string, op Op, key string, value []byte) {
	m.queueMu.Lock()
	m.pending = append(m.pending, &commitReq{op: op, state: state, key: key, value: value})
	m.queueMu.Unlock()
}

// GroupFlush synchronously closes the commit window: it drains the
// whole pending queue batch by batch on the caller's goroutine, waking
// any parked members, and returns the number of records committed. If
// a concurrent Append caller is already leading, the queue belongs to
// that leader and GroupFlush returns without stealing it. A batch
// error stops the drain and fails the flush (the group's members saw
// the same error).
func (m *Manager) GroupFlush() (int, error) {
	total := 0
	for {
		m.queueMu.Lock()
		if m.leading {
			m.queueMu.Unlock()
			return total, nil
		}
		batch := m.takeLocked()
		m.queueMu.Unlock()
		if batch == nil {
			return total, nil
		}
		if err := m.commit(batch); err != nil {
			return total, err
		}
		total += len(batch)
	}
}

// GroupPending reports the number of enqueued-but-uncommitted
// mutations on the commit queue.
func (m *Manager) GroupPending() int {
	m.queueMu.Lock()
	defer m.queueMu.Unlock()
	return len(m.pending)
}

// commitGroupLocked validates, seals, and appends one batch as a single
// WAL record. Caller holds m.mu. On error nothing was acked: the whole
// group fails together (for CrashBeforeGroupWake the frame is durable —
// recovery may surface the group even though every member saw an
// error).
func (m *Manager) commitGroupLocked(batch []*commitReq) ([]uint64, error) {
	if !m.recovered {
		return nil, ErrNotRecovered
	}
	for _, req := range batch {
		if _, ok := m.byName[req.state]; !ok {
			return nil, fmt.Errorf("persist: append to unregistered state %q", req.state)
		}
	}
	if err := m.injector.hit(CrashBeforeAppend); err != nil {
		return nil, err
	}
	recs := make([]Record, len(batch))
	lsns := make([]uint64, len(batch))
	payload := 0
	for i, req := range batch {
		recs[i] = Record{LSN: m.nextLSN + uint64(i), Op: req.op, State: req.state, Key: req.key, Value: req.value}
		lsns[i] = recs[i].LSN
		payload += len(req.key) + len(req.value)
	}
	if err := m.appendBatchRecord(recs); err != nil {
		return nil, err
	}
	m.stats.Appends += uint64(len(recs))
	m.stats.AppendedBytes += uint64(payload)
	m.stats.LastLSN = recs[len(recs)-1].LSN
	m.stats.GroupCommits++
	m.stats.GroupedRecords += uint64(len(recs))
	if err := m.injector.hit(CrashBeforeGroupWake); err != nil {
		return nil, err
	}
	m.nextLSN += uint64(len(recs))
	m.sinceCkpt += len(recs)
	if m.ckptEvery > 0 && m.sinceCkpt >= m.ckptEvery {
		if err := m.checkpointLocked(); err != nil {
			return nil, err
		}
	} else if m.curSize >= m.segBytes {
		if err := m.openSegment(m.curSeq+1, m.epoch, m.nextLSN); err != nil {
			return nil, err
		}
	}
	return lsns, nil
}
