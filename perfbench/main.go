// Command perfbench is the repository's benchmark. It drives the simulator
// through its public functions, times those calls from outside, checks
// that the outputs are correct, and prints every metric by name with its
// unit. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"wall_s": {"value": 2.1, "unit": "s"}, ...}}
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload churn-study --seed 1 --seconds 50 --trace 0
//	bash perfbench/run.sh compare parent.jsonl change.jsonl
//
// README.md describes the workloads, the metrics, the output checks and
// the compare mode.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// outDir holds everything a run leaves behind: span dumps and scratch
// trace archives. run.sh builds into the same directory.
const outDir = ".bench_build"

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-battery, large-swarm, churn-study or trace-replay")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "wall time to spend on measured iterations")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	record := fs.String("record", "", "append this run's result, tagged with workload and seed, to `file` (input to compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	refs, err := loadReferences()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b := &bench{
		seed:    *seed,
		size:    defaultSizes,
		workers: runtime.NumCPU(),
		workdir: filepath.Join(outDir, "work"),
		refs:    refs,
	}
	res, err := execute(b, w, *seconds, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *record != "" {
		if err := appendRecord(*record, recordLine{Workload: w.name, Seed: b.seed, Trace: *trace,
			Start: res.start, Result: res.result}); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res.result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the JSON object the benchmark ends its output with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type executed struct {
	result result
	start  time.Time
}

// execute measures one workload and prints the human-readable report; the
// caller prints the JSON line.
func execute(b *bench, w workload, seconds float64, traced bool, stdout io.Writer) (*executed, error) {
	start := time.Now()
	out, err := measure(b, w, seconds, traced)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "workload %s, seed %d, %d workers: %d iterations, %d runs or cells attempted, %d failed\n",
		w.name, b.seed, out.workers, len(out.iters), out.attempted, out.failed)
	first := out.iters[0]
	fmt.Fprintf(stdout, "output digest %s, %d engine events per iteration\n", first.digest, first.events)
	fmt.Fprint(stdout, "iteration wall/cpu s:")
	for _, it := range out.iters {
		fmt.Fprintf(stdout, " %.3f/%.3f", it.wall.Seconds(), it.cpu.Seconds())
	}
	fmt.Fprintln(stdout)
	for i, f := range out.failures {
		if i == 10 {
			fmt.Fprintf(stdout, "FAILED: ... %d more\n", len(out.failures)-i)
			break
		}
		fmt.Fprintln(stdout, "FAILED:", f)
	}

	var ms []metric
	if traced {
		ms = perLayer(out)
		path := filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d-%d.jsonl", w.name, b.seed, os.Getpid()))
		if err := dumpSpans(path, out.spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "%d spans written to %s\n", len(out.spans), path)
		printSelfTimes(stdout, out)
	} else {
		ms = endToEnd(out)
		printCells(stdout, out)
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metricValue, len(ms))}
	for _, m := range ms {
		fmt.Fprintf(stdout, "  %-32s %14.6g %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	if res.Attempted == 0 {
		return nil, errors.New("no run or cell was attempted")
	}
	return &executed{result: res, start: start}, nil
}

// printCells reports the per-cell wall time percentiles with their sample
// count: the median, and the highest percentile with ten cells beyond it.
func printCells(stdout io.Writer, out *outcome) {
	var cells []float64
	for _, it := range out.iters {
		for _, c := range it.cells {
			cells = append(cells, c.dur.Seconds())
		}
	}
	fmt.Fprintf(stdout, "cell wall time over %d cells: p50 %.4fs", len(cells), median(cells))
	if p, v, ok := tailPercentile(cells); ok {
		fmt.Fprintf(stdout, ", p%g %.4fs", p, v)
	}
	fmt.Fprintln(stdout)
}

// printSelfTimes prints, per span name, the span count and the total and
// self time over the whole traced run, set-up and driver passes included.
func printSelfTimes(stdout io.Writer, out *outcome) {
	self := selfTimes(out.spans)
	fmt.Fprintf(stdout, "  %-24s %6s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, name := range spanNames(out.spans) {
		count := 0
		var total time.Duration
		for _, s := range out.spans {
			if s.Name == name {
				count++
				total += s.dur()
			}
		}
		var selfSum time.Duration
		for _, d := range self[name] {
			selfSum += d
		}
		fmt.Fprintf(stdout, "  %-24s %6d %12.4f %12.4f\n", name, count, total.Seconds(), selfSum.Seconds())
	}
}
