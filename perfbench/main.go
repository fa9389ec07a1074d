// Command perfbench is the repository benchmark: closed-loop workloads
// driven through the public APIs of the fabric (replicated attested KV
// store) and of the partitioned World (the paper's RMI program). An
// untraced run prints the end-to-end metrics; a traced run peels the
// layers and prints the per-layer metrics. The last line of standard
// output is one JSON object: correct, attempted, failed, metrics.
//
//	perfbench --workload kv-write --seed 1 --seconds 6 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// heldOutSeed is the seed kept out of tuning: rerun a claim with it to
// check it on inputs nobody tuned against.
const heldOutSeed = 7_777_777

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of a run.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      io.Writer // progress and provenance lines
}

func (c runConfig) duration() time.Duration { return time.Duration(c.seconds) * time.Second }

func (c runConfig) logf(format string, args ...any) {
	fmt.Fprintf(c.out, "perfbench: "+format+"\n", args...)
}

// workloads maps workload names to their untraced and traced runs.
var workloads = map[string]struct {
	run    func(runConfig) (result, error)
	traced func(runConfig) (result, error)
}{
	"kv-write": {run: func(c runConfig) (result, error) { return runKV(c, kvWriteWorkload) },
		traced: func(c runConfig) (result, error) { return traceKV(c, kvWriteWorkload) }},
	"kv-read": {run: func(c runConfig) (result, error) { return runKV(c, kvReadWorkload) },
		traced: func(c runConfig) (result, error) { return traceKV(c, kvReadWorkload) }},
	"rmi-mix": {run: runRMI, traced: traceRMI},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "kv-write, kv-read or rmi-mix")
	seed := fs.Uint64("seed", 0, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 6, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced layer peel and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want kv-write, kv-read or rmi-mix)", *workload)
	}
	if *seconds < repeats {
		// Shorter segments may end before the rmi-mix collector runs.
		return fmt.Errorf("--seconds must be at least %d, one per repetition", repeats)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, out: out}
	prov, err := json.Marshal(provenance(cfg))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "perfbench: run %s\n", prov)

	runFn := wl.run
	if cfg.trace {
		runFn = wl.traced
	}
	res, err := runFn(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// provenance identifies what a result was measured on.
func provenance(c runConfig) map[string]any {
	return map[string]any{
		"workload":   c.workload,
		"seed":       c.seed,
		"held_out":   c.seed == heldOutSeed,
		"seconds":    c.seconds,
		"trace":      c.trace,
		"commit":     commit(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"ncpu":       runtime.NumCPU(),
		"go":         runtime.Version(),
	}
}
