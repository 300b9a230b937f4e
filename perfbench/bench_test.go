package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// spec reads the benchmark definition at the repository root.
func spec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTinyRunPrintsEveryMetric runs every workload at the tiny size,
// untraced and traced, and checks that the last line names exactly the
// metrics BENCHMARK.json lists for that mode, each with its unit, and that
// every output check passed. BENCHMARK.json may list a subset of the
// workloads, but only ones the benchmark has.
func TestTinyRunPrintsEveryMetric(t *testing.T) {
	s := spec(t)
	want := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range s.EndToEnd {
		want["0"][m.Name] = m.Unit
	}
	for _, m := range s.PerLayer {
		want["1"][m.Name] = m.Unit
	}
	for _, spec := range s.Workloads {
		if _, err := workloadByName(spec.Name); err != nil {
			t.Fatalf("BENCHMARK.json: %v", err)
		}
	}
	t.Chdir(t.TempDir())
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout bytes.Buffer
			ex, err := execute(tinyBench(t, nil), w, 0.2, trace == "1", &stdout)
			if err != nil {
				t.Fatalf("%s trace %s: %v", w.name, trace, err)
			}
			line, err := json.Marshal(ex.result)
			if err != nil {
				t.Fatal(err)
			}
			var res result
			if err := json.Unmarshal(line, &res); err != nil {
				t.Fatalf("%s trace %s: result line: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct %v, %d of %d failed:\n%s", w.name, trace, res.Correct, res.Failed, res.Attempted, stdout.String())
			}
			names := want[trace]
			if len(res.Metrics) != len(names) {
				t.Errorf("%s trace %s: %d metrics, want %d", w.name, trace, len(res.Metrics), len(names))
			}
			for name, unit := range names {
				got, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace %s: metric %s missing", w.name, trace, name)
				case got.Unit != unit:
					t.Errorf("%s trace %s: %s unit %q, want %q", w.name, trace, name, got.Unit, unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace %s: %s = %v", w.name, trace, name, got.Value)
				case trace == "0" && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is zero", w.name, name)
				}
			}
		}
	}
}

// tinySizes is a smoke size: every workload in well under a second.
var tinySizes = sizes{
	batteryDur:    10 * time.Second,
	batteryPeers:  0.05,
	swarmPeers:    200,
	swarmDur:      10 * time.Second,
	swarmJoin:     2 * time.Second,
	churnDur:      10 * time.Second,
	churnPeers:    0.3,
	captureDur:    10 * time.Second,
	capturePeers:  0.05,
	setups:        2,
	captureSetups: 1,
	lookups:       10_000,
}

func tinyBench(t *testing.T, refs map[string]reference) *bench {
	t.Helper()
	return &bench{seed: 5, size: tinySizes, workers: runtime.NumCPU(), workdir: t.TempDir(), refs: refs}
}

// TestReferenceDigestCatchesTampering proves the reference check fires: the
// recorded digest of a first run passes a second run, and a tampered copy
// of it fails every unit.
func TestReferenceDigestCatchesTampering(t *testing.T) {
	w, err := workloadByName("large-swarm")
	if err != nil {
		t.Fatal(err)
	}
	first, err := measure(tinyBench(t, nil), w, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	it := first.iters[0]
	good := reference{Seed: 5, Digest: it.digest, Events: it.events}
	bad := good
	bad.Digest = strings.Repeat("0", len(good.Digest))
	for _, tc := range []struct {
		name   string
		ref    reference
		failed bool
	}{{"recorded", good, false}, {"tampered", bad, true}} {
		out, err := measure(tinyBench(t, map[string]reference{w.name: tc.ref}), w, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		passed := passedFrac(t, out)
		if tc.failed != (passed < 1) || tc.failed != (out.failed > 0) {
			t.Errorf("%s reference: passed_frac %v, %d of %d failed", tc.name, passed, out.failed, out.attempted)
		}
	}
}

func passedFrac(t *testing.T, out *outcome) float64 {
	t.Helper()
	for _, m := range endToEnd(out) {
		if m.name == "passed_frac" {
			return m.value
		}
	}
	t.Fatal("no passed_frac metric")
	return 0
}

// TestCorruptTraceFails damages one archived trace after capture and
// checks that the replay's output checks register the damage.
func TestCorruptTraceFails(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(data []byte) []byte
	}{
		{"flipped size byte", func(data []byte) []byte {
			// Header: 4-byte magic, 4-byte probe address, label length,
			// label; the first record's size field starts 16 bytes in.
			data[9+int(data[8])+16] ^= 0x5a
			return data
		}},
		{"truncated record", func(data []byte) []byte { return data[:len(data)-3] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := tinyBench(t, nil)
			prep, err := traceReplay(b, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer prep.cleanup()
			clean := &iter{n: 1, start: time.Now()}
			prep.iterate(clean)
			if clean.failed != 0 {
				t.Fatalf("undamaged archive failed: %v", clean.failures)
			}
			files, err := filepath.Glob(filepath.Join(b.workdir, "traces-*", "PPLive", "*.nwt"))
			if err != nil || len(files) == 0 {
				t.Fatalf("no archived PPLive traces (%v)", err)
			}
			data, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(files[0], tc.corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}
			it := &iter{n: 2, start: time.Now()}
			prep.iterate(it)
			out := &outcome{iters: []*iter{clean, it}, attempted: clean.units + it.units, failed: it.failed}
			if it.failed == 0 || passedFrac(t, out) >= 1 {
				t.Errorf("damaged archive passed: %d of %d units failed", it.failed, it.units)
			}
		})
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the rule the spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

// TestSelfTimeSubtractsChildUnion checks that overlapping children are
// subtracted once.
func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Run: 1, Name: "parent", Start: 0, End: 10},
		{ID: 2, Parent: 1, Run: 1, Name: "child", Start: 1, End: 4},
		{ID: 3, Parent: 1, Run: 1, Name: "child", Start: 3, End: 6},
		{ID: 4, Parent: 1, Run: 1, Name: "child", Start: 9, End: 12},
	}
	self := selfTimes(spans)
	if got := self["parent"][1]; got != 4 {
		t.Errorf("parent self time %d, want 4", got)
	}
	if got := self["child"][1]; got != 9 {
		t.Errorf("child self time %d, want 9", got)
	}
}

// TestCompareVerdicts feeds the compare rules synthetic result sets.
func TestCompareVerdicts(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	mk := func(n int, parent, change func(i int) float64) []pair {
		var pairs []pair
		for i := range n {
			rec := func(v float64, at int) recordLine {
				return recordLine{Workload: "w", Seed: int64(i), Start: t0.Add(time.Duration(at) * time.Second),
					Result: result{Metrics: map[string]metricValue{"wall_s": {Value: v}}}}
			}
			pairs = append(pairs, pair{rec(parent(i), 2*i), rec(change(i), 2*i+1)})
		}
		return pairs
	}
	steady := func(i int) float64 { return 10 + 0.1*float64(i%3) }
	for _, tc := range []struct {
		name  string
		pairs []pair
		want  string
	}{
		{"faster", mk(10, steady, func(i int) float64 { return steady(i) * 0.8 }), "improved"},
		// Every change run beats every parent run, but the medians are
		// no further apart than the parent's interquartile spread.
		{"faster within spread", mk(10, func(i int) float64 { return 10 + 0.1*float64(i) },
			func(int) float64 { return 9.99 }), "within bound"},
		{"same", mk(10, steady, steady), "within bound"},
		{"slower", mk(10, steady, func(i int) float64 { return steady(i) * 1.5 }), "regressed"},
		{"noisy parent", mk(10, func(i int) float64 { return 10 * float64(1+i%2) }, steady), "unresolved"},
		{"too few", mk(9, steady, func(i int) float64 { return steady(i) * 0.8 }), "too few pairs"},
	} {
		if got := verdict(tc.pairs, "wall_s", true, 0.25).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}

	// Only neighbours in time from different sides on one seed pair up.
	var parent, change []recordLine
	for _, p := range mk(4, steady, steady) {
		parent = append(parent, p.parent)
		change = append(change, p.change)
	}
	change[2].Seed = 99
	if got := len(pairRuns(parent, change)); got != 3 {
		t.Errorf("pairRuns made %d pairs, want 3", got)
	}
	if got := len(pairRuns(parent, nil)); got != 0 {
		t.Errorf("pairRuns paired one side with itself: %d pairs", got)
	}
}
