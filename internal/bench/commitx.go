package bench

// Group-commit experiments: the durable-write cost model of the commit
// queue. Each point drives W concurrent writers through one
// persist.Manager and measures what the batching buys — appends per
// second, per-ack latency quantiles, the achieved batch size, and
// sealed bytes per operation — so the table reads as "how far does one
// sealed frame per group amortise as writers grow".

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"montsalvat/internal/persist"
)

// groupCommitWriters is the concurrency sweep.
func groupCommitWriters(opts Options) []int {
	if opts.Quick {
		return []int{1, 4, 16}
	}
	return []int{1, 4, 16, 64}
}

// GroupCommitPoint is one machine-readable cell of the group-commit
// sweep in BENCH_persist.json.
type GroupCommitPoint struct {
	Writers          int     `json:"writers"`
	PutsPerSec       float64 `json:"puts_per_sec"`
	AckP50US         float64 `json:"ack_p50_us"`
	AckP99US         float64 `json:"ack_p99_us"`
	MeanBatch        float64 `json:"mean_batch"`
	SealedFrames     uint64  `json:"sealed_frames"`
	SealedBytesPerOp float64 `json:"sealed_bytes_per_op"`
}

// runGroupCommitPoint measures one writer-count cell: W writers each
// journal perWriter puts through a fresh manager, and every Append's
// wall latency is sampled.
func runGroupCommitPoint(opts Options, writers int) (GroupCommitPoint, error) {
	perWriter := opts.scale(400, 80)
	l, err := newRecoveryLineage(opts.Config())
	if err != nil {
		return GroupCommitPoint{}, err
	}
	m, st, err := l.boot()
	if err != nil {
		return GroupCommitPoint{}, err
	}
	if _, err := m.Recover(); err != nil {
		return GroupCommitPoint{}, err
	}

	val := make([]byte, 64)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	total := writers * perWriter
	lats := make([][]time.Duration, writers)
	errs := make([]error, writers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lat := make([]time.Duration, 0, perWriter)
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%03d:%06d", w, i)
				st.Put(key, val)
				t0 := time.Now()
				if _, err := m.Append("kv", persist.OpPut, key, val); err != nil {
					errs[w] = err
					return
				}
				lat = append(lat, time.Since(t0))
			}
			lats[w] = lat
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			return GroupCommitPoint{}, err
		}
	}

	all := make([]time.Duration, 0, total)
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	quant := func(q float64) float64 {
		if len(all) == 0 {
			return 0
		}
		i := int(q * float64(len(all)-1))
		return float64(all[i].Nanoseconds()) / 1e3
	}

	pt := GroupCommitPoint{
		Writers:  writers,
		AckP50US: quant(0.50),
		AckP99US: quant(0.99),
	}
	if elapsed > 0 {
		pt.PutsPerSec = float64(total) / elapsed
	}
	stats := m.Stats()
	pt.SealedFrames = stats.GroupCommits
	if stats.GroupCommits > 0 {
		pt.MeanBatch = float64(stats.GroupedRecords) / float64(stats.GroupCommits)
	}
	if total > 0 {
		pt.SealedBytesPerOp = float64(stats.AppendedBytes) / float64(total)
	}
	return pt, nil
}

// GroupCommitSweep runs one cell per writer count — the
// machine-readable record for BENCH_persist.json.
func GroupCommitSweep(opts Options) ([]GroupCommitPoint, error) {
	var pts []GroupCommitPoint
	for _, w := range groupCommitWriters(opts) {
		pt, err := runGroupCommitPoint(opts, w)
		if err != nil {
			return nil, fmt.Errorf("group-commit writers=%d: %w", w, err)
		}
		pts = append(pts, pt)
	}
	return pts, nil
}

// GroupCommit regenerates the human-readable group-commit table.
func GroupCommit(opts Options) (*Table, error) {
	t := &Table{
		ID:      "group-commit",
		Title:   "Group commit: durable-put throughput vs concurrent writers",
		XLabel:  "series \\ writers",
		Unit:    "puts/s",
		Columns: intColumns(groupCommitWriters(opts)),
	}
	pts, err := GroupCommitSweep(opts)
	if err != nil {
		return nil, err
	}
	var puts, batch, p99 []float64
	for _, p := range pts {
		puts = append(puts, p.PutsPerSec)
		batch = append(batch, p.MeanBatch)
		p99 = append(p99, p.AckP99US)
	}
	t.AddRow("puts/s", puts...)
	t.AddRow("batch", batch...)
	t.AddRow("ack-p99-us", p99...)
	t.AddNote("every append rides the commit queue: a leader yields once per term, then seals the queued group as one WAL frame")
	t.AddNote("batch row = mean records per sealed frame: batching is natural, followers queue while the leader seals")
	return t, nil
}
