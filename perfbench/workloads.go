package main

import (
	"bytes"
	"context"
	_ "embed"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"napawine"
	"napawine/internal/analysis"
	"napawine/internal/core"
	"napawine/internal/packet"
	"napawine/internal/study"
	"napawine/internal/world"
)

// workload is one set of inputs the benchmark runs. setup prepares it
// (and is what setup_s times); the prepared iteration is the user's
// operation that wall_s times.
type workload struct {
	name  string
	setup func(b *bench, tr *tracer, parent int) (*prepared, error)
	// serial workloads run one cell at a time on one goroutine.
	serial bool
}

func (w workload) workers(b *bench) int {
	if w.serial {
		return 1
	}
	return b.workers
}

var workloads = []workload{
	{name: "paper-battery", setup: paperBattery},
	{name: "large-swarm", setup: largeSwarm, serial: true},
	{name: "churn-study", setup: churnStudy},
	{name: "trace-replay", setup: traceReplay, serial: true},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// paperBattery runs all three applications at their paper-calibrated
// populations, stationary, then renders Tables I-IV, Figures 1-2 and the
// HOP threshold sweep.
func paperBattery(b *bench, tr *tracer, parent int) (*prepared, error) {
	scale := napawine.Scale{Seed: b.seed, Duration: setupHorizon, PeerFactor: b.size.batteryPeers, Workers: b.workers}
	obs := newCellObserver(&iter{tr: tr, root: parent, start: time.Now()})
	warm, err := napawine.RunAll(scale, napawine.WithObserver(obs))
	if err != nil {
		return nil, err
	}
	scale.Duration = b.size.batteryDur
	return &prepared{
		worlds: worldSpecs(warm),
		iterate: func(it *iter) {
			results, err := napawine.RunAll(scale, napawine.WithObserver(newCellObserver(it)))
			if err != nil {
				it.failCells(len(napawine.Apps()), err)
				return
			}
			var buf bytes.Buffer
			for _, r := range results {
				it.unit(it.addResult(r))
			}
			renderBattery(it, &buf, results)
			it.digest = digest(buf.Bytes())
		},
	}, nil
}

func renderBattery(it *iter, buf *bytes.Buffer, results []*napawine.Result) {
	sp := it.tr.begin("experiment.reduce", it.root)
	tables := []*napawine.Table{napawine.TableII(results), napawine.TableIII(results), napawine.TableIV(results)}
	var reduced []any
	for _, r := range results {
		hops, err := napawine.HopSweep(r, 15, 23)
		if err != nil {
			it.tr.end(sp)
			it.failAll(err)
			return
		}
		tables = append(tables, hops)
		reduced = append(reduced, napawine.Summarize(r), napawine.ComputeTableIV(r))
	}
	it.tr.end(sp)

	sp = it.tr.begin("report.render", it.root)
	defer it.tr.end(sp)
	for _, s := range world.TableI() {
		fmt.Fprintf(buf, "%+v\n", s)
	}
	for _, t := range tables {
		checkRender(it, t.Render(buf))
	}
	checkRender(it, napawine.RenderFigure1(buf, results))
	checkRender(it, napawine.RenderFigure2(buf, results))
	for _, v := range reduced {
		fmt.Fprintf(buf, "%+v\n", v)
	}
}

// checkRender fails the iteration on a render error.
func checkRender(it *iter, err error) {
	if err != nil {
		it.failAll(fmt.Errorf("render: %w", err))
	}
}

// largeSwarm runs one PPLive swarm several times the battery's population
// under the steady scenario, serially, with a short join window so the
// swarm is fully online for most of the run.
func largeSwarm(b *bench, tr *tracer, parent int) (*prepared, error) {
	cfg := napawine.DefaultConfig(napawine.PPLive)
	cfg.Seed = b.seed
	cfg.World.Seed = b.seed
	cfg.World.Peers = b.size.swarmPeers
	cfg.BackgroundJoinWindow = b.size.swarmJoin
	steady, err := napawine.ScenarioByName("steady")
	if err != nil {
		return nil, err
	}
	cfg.Scenario = steady
	cfg.Duration = setupHorizon
	sp := tr.begin("experiment.run", parent)
	warm, err := napawine.Run(cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	cfg.Duration = b.size.swarmDur
	return &prepared{
		worlds: worldSpecs([]*napawine.Result{warm}),
		iterate: func(it *iter) {
			run := cfg
			cell := it.tr.begin("experiment.run", it.root)
			if it.tr != nil {
				last := time.Now()
				run.OnSample = func(napawine.SeriesSample) {
					now := time.Now()
					it.tr.record("experiment.bucket", cell, last, now)
					last = now
				}
			}
			t0 := time.Now()
			r, err := napawine.Run(run)
			it.addCell(0, time.Since(t0))
			it.tr.end(cell)
			if err != nil {
				it.unit(err)
				return
			}
			it.unit(it.addResult(r))

			sp := it.tr.begin("experiment.reduce", it.root)
			sum := napawine.Summarize(r)
			cells := napawine.ComputeTableIV(r)
			tables := []*napawine.Table{napawine.TableIV([]*napawine.Result{r}), napawine.SeriesTable([]*napawine.Result{r})}
			it.tr.end(sp)

			sp = it.tr.begin("report.render", it.root)
			var buf bytes.Buffer
			for _, t := range tables {
				checkRender(it, t.Render(&buf))
			}
			fmt.Fprintf(&buf, "%+v\n%+v\n", sum, cells)
			it.tr.end(sp)
			it.digest = digest(buf.Bytes())
		},
	}, nil
}

//go:embed churn-study.json
var churnStudyJSON []byte

// churnStudy runs a study grid crossing the awareness-ablation axes with
// the zapping scenario: many small cells on parallel workers, half of them
// with bounded uplink queues.
func churnStudy(b *bench, tr *tracer, parent int) (*prepared, error) {
	load := func(horizon time.Duration) (*napawine.Study, error) {
		st, err := napawine.DecodeStudy(bytes.NewReader(churnStudyJSON))
		if err != nil {
			return nil, err
		}
		st.BaseSeed = b.seed
		if b.size.churnDur > 0 {
			st.Duration = napawine.StudyDuration(b.size.churnDur)
		}
		if horizon > 0 {
			st.Duration = napawine.StudyDuration(horizon)
		}
		st.PeerFactor = b.size.churnPeers
		return st, st.Validate()
	}
	warmStudy, err := load(setupHorizon)
	if err != nil {
		return nil, err
	}
	obs := newCellObserver(&iter{tr: tr, root: parent, start: time.Now()})
	warm, err := napawine.RunStudy(context.Background(), warmStudy,
		napawine.WithWorkers(b.workers), napawine.WithObserver(obs), study.WithFullResults())
	if err != nil {
		return nil, err
	}
	st, err := load(0)
	if err != nil {
		return nil, err
	}
	metrics := make([]napawine.StudyMetric, 0, len(st.Metrics))
	for _, key := range st.Metrics {
		m, err := napawine.StudyMetricByKey(key)
		if err != nil {
			return nil, err
		}
		metrics = append(metrics, m)
	}
	// A cell's population does not depend on its horizon, so set-up's
	// worlds give the grid's peer-seconds.
	var peerSecs float64
	for _, r := range warm.Full {
		peerSecs += population(r) * time.Duration(st.Duration).Seconds()
	}
	render := func(it *iter, res *napawine.StudyResult) {
		sp := it.tr.begin("experiment.reduce", it.root)
		table := res.ComparisonTable(metrics...)
		it.tr.end(sp)
		sp = it.tr.begin("report.render", it.root)
		var buf bytes.Buffer
		checkRender(it, table.Render(&buf))
		it.tr.end(sp)
		it.digest = digest(buf.Bytes())
	}
	return &prepared{
		worlds: worldSpecs(warm.Full),
		// The timed iterations run the study as users do, keeping only
		// each cell's Summary; they check what a Summary carries.
		iterate: func(it *iter) {
			res, err := napawine.RunStudy(context.Background(), st,
				napawine.WithWorkers(b.workers), napawine.WithObserver(newCellObserver(it)))
			if err != nil {
				it.failCells(st.Runs(), err)
				return
			}
			it.peerSecs = peerSecs
			for i, c := range res.Cells {
				it.events += c.Summary.Events
				it.records += int64(c.Summary.Events)
				it.unit(checkCell(i, c))
			}
			render(it, res)
		},
		// The ledger identities need each cell's full Result: one
		// untimed pass keeps them and supplies the ledger totals.
		check: func(it *iter) {
			res, err := napawine.RunStudy(context.Background(), st,
				napawine.WithWorkers(b.workers), study.WithFullResults())
			if err != nil {
				it.failCells(st.Runs(), err)
				return
			}
			for _, r := range res.Full {
				it.unit(it.addResult(r))
			}
			render(it, res)
		},
	}, nil
}

// checkCell verifies one study cell from its Summary: video bytes are
// whole chunks, every peer was located, unbounded queues drop nothing and
// bounded ones drop.
func checkCell(i int, c napawine.StudyCell) error {
	s := c.Summary
	switch {
	case s.VideoBytes != s.ChunksServed*chunkBytes:
		return fmt.Errorf("cell %d: video bytes %d != chunks served %d x %d", i, s.VideoBytes, s.ChunksServed, chunkBytes)
	case s.Unlocated != 0:
		return fmt.Errorf("cell %d: %d unlocated peers", i, s.Unlocated)
	case c.QueueDepth == 0 && s.Drops != 0:
		return fmt.Errorf("cell %d: %d drops with unbounded queues", i, s.Drops)
	case c.QueueDepth > 0 && s.Drops == 0:
		return fmt.Errorf("cell %d: no drops at queue depth %d", i, c.QueueDepth)
	}
	return nil
}

// worldSpecs lists the world each run built.
func worldSpecs(results []*napawine.Result) []world.Spec {
	specs := make([]world.Spec, 0, len(results))
	for _, r := range results {
		specs = append(specs, r.Cfg.World)
	}
	return specs
}

// capture is one application's archived probe traces and the run that
// wrote them.
type capture struct {
	run   *napawine.Result
	files []string
	want  []napawine.Observation // the run's own observations, sorted
	err   error                  // the run's ledger check
	wall  time.Duration
}

// traceReplay's set-up captures a battery's probe traces to disk; each
// iteration replays them through the offline analysis path and renders
// Table IV from the replayed observations.
func traceReplay(b *bench, tr *tracer, parent int) (*prepared, error) {
	if err := os.MkdirAll(b.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(b.workdir, "traces-")
	if err != nil {
		return nil, err
	}
	caps, err := captureBattery(b, tr, parent, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	runs := make([]*napawine.Result, len(caps))
	var events uint64
	var peerSecs float64
	var runNS int64
	var led ledgerSum
	for i, c := range caps {
		runs[i] = c.run
		events += c.run.Events
		peerSecs += peerSeconds(c.run)
		runNS += int64(c.wall)
		led.add(c.run)
	}
	var want bytes.Buffer
	if err := napawine.TableIV(runs).Render(&want); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}

	return &prepared{
		worlds:  worldSpecs(runs),
		cleanup: func() { os.RemoveAll(dir) },
		decode:  func() (int64, int64, error) { return decodeOnly(caps) },
		iterate: func(it *iter) {
			it.events, it.peerSecs, it.runNS, it.led = events, peerSecs, runNS, led
			replayed := make([]*napawine.Result, len(caps))
			var buf bytes.Buffer
			for i, c := range caps {
				t0 := time.Now()
				cell := it.tr.begin("replay.cell", it.root)
				obs, n, err := replay(it, cell, c, &buf)
				it.tr.end(cell)
				it.mu.Lock()
				it.cells = append(it.cells, cellTime{dur: time.Since(t0)})
				it.mu.Unlock()
				it.decoded += n
				it.records += n
				if err == nil {
					err = c.err
				}
				it.unit(err)
				r := *c.run
				r.Observations = obs
				replayed[i] = &r
			}
			sp := it.tr.begin("experiment.reduce", it.root)
			table := napawine.TableIV(replayed)
			it.tr.end(sp)
			sp = it.tr.begin("report.render", it.root)
			var got bytes.Buffer
			checkRender(it, table.Render(&got))
			it.tr.end(sp)
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				it.failAll(errors.New("Table IV from the replayed traces differs from the run's own"))
			}
			buf.Write(got.Bytes())
			it.digest = digest(buf.Bytes())
		},
	}, nil
}

// captureBattery runs each application once with its probe traces stored
// under dir/<app>, on the benchmark's workers.
func captureBattery(b *bench, tr *tracer, parent int, dir string) ([]*capture, error) {
	apps := napawine.Apps()
	caps := make([]*capture, len(apps))
	errs := make([]error, len(apps))
	sem := make(chan struct{}, b.workers)
	var wg sync.WaitGroup
	for i, app := range apps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			caps[i], errs[i] = captureApp(b, tr, parent, app, filepath.Join(dir, app))
		}()
	}
	wg.Wait()
	return caps, errors.Join(errs...)
}

func captureApp(b *bench, tr *tracer, parent int, app, dir string) (*capture, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg := napawine.DefaultConfig(app)
	cfg.Seed = b.seed
	cfg.World.Seed = b.seed
	cfg.Duration = b.size.captureDur
	cfg.ScalePeers(b.size.capturePeers)
	cfg.StoreTraces = dir
	sp := tr.begin("experiment.run", parent)
	t0 := time.Now()
	r, err := napawine.Run(cfg)
	wall := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s capture: %w", app, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	c := &capture{run: r, err: checkLedger(r), wall: wall}
	for _, e := range entries {
		c.files = append(c.files, filepath.Join(dir, e.Name()))
	}
	sort.Strings(c.files)
	c.want = append([]napawine.Observation(nil), r.Observations...)
	sortObservations(c.want)
	return c, nil
}

// replay runs one application's archive through packet.NewReader,
// analysis.FromTrace, Observations and core.Compute, writes the computed
// indices to buf, and checks the observations against the run's own.
func replay(it *iter, cell int, c *capture, buf *bytes.Buffer) ([]napawine.Observation, int64, error) {
	cfg := c.run.Cfg
	topo := c.run.World.Topo
	probes := c.run.World.ProbeAddrs()
	var obs []napawine.Observation
	var records int64
	for _, path := range c.files {
		sp := it.tr.begin("analysis.from_trace", cell)
		agg, err := aggregate(path, cfg.Analysis)
		it.tr.end(sp)
		if err != nil {
			return nil, records, err
		}
		records += int64(agg.Records())
		sp = it.tr.begin("analysis.observations", cell)
		o, unlocated := agg.Observations(topo, probes)
		it.tr.end(sp)
		if unlocated != 0 {
			return nil, records, fmt.Errorf("%s: replay could not locate %d peers", path, unlocated)
		}
		obs = append(obs, o...)
	}

	sp := it.tr.begin("core.compute", cell)
	for _, cl := range core.PaperClassifiers() {
		for _, dir := range []core.Direction{core.Download, core.Upload} {
			for _, excl := range []bool{false, true} {
				fmt.Fprintf(buf, "%s %v\n", c.run.App, core.Compute(obs, dir, cl, cfg.Contrib, excl))
			}
		}
	}
	it.tr.end(sp)

	sortObservations(obs)
	if err := sameObservations(obs, c.want); err != nil {
		return obs, records, fmt.Errorf("%s: %w", c.run.App, err)
	}
	return obs, records, nil
}

func aggregate(path string, cfg analysis.Config) (*analysis.Aggregator, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rd, err := packet.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	agg, err := analysis.FromTrace(rd, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return agg, nil
}

// decodeOnly reads every archived record without aggregating it, and
// reports the records read and the archive's size.
func decodeOnly(caps []*capture) (records, size int64, err error) {
	for _, c := range caps {
		for _, path := range c.files {
			n, sz, err := decodeFile(path)
			if err != nil {
				return records, size, err
			}
			records += n
			size += sz
		}
	}
	return records, size, nil
}

func decodeFile(path string) (records, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	rd, err := packet.NewReader(f)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", path, err)
	}
	for {
		_, err := rd.Next()
		if err == io.EOF {
			return records, st.Size(), nil
		}
		if err != nil {
			return records, st.Size(), fmt.Errorf("%s: %w", path, err)
		}
		records++
	}
}
