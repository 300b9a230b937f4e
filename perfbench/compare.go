package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// recordLine is one run as --record appends it: the result plus what the
// compare mode needs to pair it with a run of the other commit.
type recordLine struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Trace    int       `json:"trace"`
	Start    time.Time `json:"start"`
	Result   result    `json:"result"`
}

func appendRecord(path string, rec recordLine) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("record: %w", err)
	}
	return f.Close()
}

func readRecords(path string) ([]recordLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []recordLine
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec recordLine
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if rec.Trace == 0 {
			recs = append(recs, rec)
		}
	}
	return recs, sc.Err()
}

// benchSpec is BENCHMARK.json: the workloads and the metrics with their
// units, directions and (end-to-end only) bounds.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// pair is one parent run and one change run of a workload, adjacent in
// time and on the same seed.
type pair struct{ parent, change recordLine }

// pairRuns walks both sides' runs of one workload in start order and pairs
// neighbours that come from different sides and share a seed, so only
// interleaved runs count.
func pairRuns(parent, change []recordLine) []pair {
	type tagged struct {
		rec      recordLine
		isParent bool
	}
	var all []tagged
	for _, r := range parent {
		all = append(all, tagged{r, true})
	}
	for _, r := range change {
		all = append(all, tagged{r, false})
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].rec.Start.Before(all[j].rec.Start) })
	var pairs []pair
	for i := 0; i+1 < len(all); {
		a, b := all[i], all[i+1]
		if a.isParent == b.isParent || a.rec.Seed != b.rec.Seed {
			i++
			continue
		}
		if a.isParent {
			pairs = append(pairs, pair{a.rec, b.rec})
		} else {
			pairs = append(pairs, pair{b.rec, a.rec})
		}
		i += 2
	}
	return pairs
}

// verdict judges one metric on one workload by the rules for claiming a
// gain in a small sandbox: at least ten interleaved pairs, the change
// winning at least nine tenths of them (ties count for neither) and the
// medians apart by more than the parent's interquartile spread. A metric
// whose parent spread is wider than its bound is unresolved unless every
// change run beats every parent run; that lifts only the unresolved
// verdict, and a gain still has to pass the test above.
func verdict(pairs []pair, metric string, lowerBetter bool, bound float64) (row compareRow) {
	better := func(a, b float64) bool {
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	var p, c []float64
	for _, pr := range pairs {
		pv, cv := pr.parent.Result.Metrics[metric].Value, pr.change.Result.Metrics[metric].Value
		p = append(p, pv)
		c = append(c, cv)
		if better(cv, pv) {
			row.wins++
		}
	}
	row.pairs = len(pairs)
	row.pMed, row.cMed = median(p), median(c)
	row.pQ1, row.pQ3 = quartiles(p)
	row.cQ1, row.cQ3 = quartiles(c)
	if row.pMed != 0 {
		row.delta = (row.cMed - row.pMed) / math.Abs(row.pMed)
	}
	iqr := row.pQ3 - row.pQ1
	spread := math.Inf(1)
	if row.pMed != 0 {
		spread = iqr / math.Abs(row.pMed)
	}
	allBetter := len(c) > 0
	for _, cv := range c {
		for _, pv := range p {
			if !better(cv, pv) {
				allBetter = false
			}
		}
	}
	worse := -row.delta
	if lowerBetter {
		worse = row.delta
	}
	switch {
	case row.pairs < 10:
		row.verdict = "too few pairs"
	case spread > bound && !allBetter:
		row.verdict = "unresolved"
	case better(row.cMed, row.pMed) && float64(row.wins) >= 0.9*float64(row.pairs) && math.Abs(row.cMed-row.pMed) > iqr:
		row.verdict = "improved"
	case worse > bound:
		row.verdict = "regressed"
	default:
		row.verdict = "within bound"
	}
	return row
}

type compareRow struct {
	pairs, wins    int
	pMed, pQ1, pQ3 float64
	cMed, cQ1, cQ3 float64
	delta          float64
	verdict        string
}

// compareMain reads a parent and a change result set and prints, per
// end-to-end metric, one row per workload.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the metrics' directions and bounds")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: perfbench compare [-bench BENCHMARK.json] PARENT.jsonl CHANGE.jsonl")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 1
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %s: %v\n", *specPath, err)
		return 1
	}
	parent, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 1
	}
	change, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 1
	}
	byWorkload := func(recs []recordLine, name string) []recordLine {
		var out []recordLine
		for _, r := range recs {
			if r.Workload == name {
				out = append(out, r)
			}
		}
		return out
	}
	for _, m := range spec.EndToEnd {
		fmt.Fprintf(stdout, "%s (%s, %s is better, bound %.0f%%)\n", m.Name, m.Unit, m.Better, 100*m.Bound)
		fmt.Fprintf(stdout, "  %-14s %5s %5s  %-34s %-34s %8s  %s\n",
			"workload", "pairs", "wins", "parent median [q1, q3]", "change median [q1, q3]", "delta", "verdict")
		for _, w := range spec.Workloads {
			pairs := pairRuns(byWorkload(parent, w.Name), byWorkload(change, w.Name))
			row := verdict(pairs, m.Name, m.Better == "lower", m.Bound)
			fmt.Fprintf(stdout, "  %-14s %5d %5d  %-34s %-34s %+7.1f%%  %s\n", w.Name, row.pairs, row.wins,
				fmt.Sprintf("%.4g [%.4g, %.4g]", row.pMed, row.pQ1, row.pQ3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", row.cMed, row.cQ1, row.cQ3),
				100*row.delta, row.verdict)
		}
	}
	return 0
}
