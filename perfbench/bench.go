package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"napawine"
	"napawine/internal/topology"
	"napawine/internal/world"
)

// sizes fixes how much work each workload does. defaultSizes is the
// benchmark; the self-tests run a smaller one.
type sizes struct {
	batteryDur   time.Duration // paper-battery: virtual horizon per cell
	batteryPeers float64       // paper-battery: PeerFactor (1 = the paper's populations)

	swarmPeers int           // large-swarm: background peers
	swarmDur   time.Duration // large-swarm: virtual horizon
	swarmJoin  time.Duration // large-swarm: BackgroundJoinWindow

	churnDur   time.Duration // churn-study: virtual horizon per cell (0 = the study file's)
	churnPeers float64       // churn-study: PeerFactor (0 = the app's population)

	captureDur   time.Duration // trace-replay: virtual horizon of the captured battery
	capturePeers float64       // trace-replay: PeerFactor of the captured battery

	// Set-up repeats at least setups times and for at least setupTime;
	// setup_s is the median pass. Spreading the passes over seconds keeps
	// a brief stall of the machine from moving the median.
	setups        int
	captureSetups int // trace-replay's capture passes, which take seconds each
	setupTime     time.Duration
	lookups       int // host pairs per pass of the path-lookup driver
}

var defaultSizes = sizes{
	batteryDur:    60 * time.Second,
	batteryPeers:  1,
	swarmPeers:    3000,
	swarmDur:      15 * time.Second,
	swarmJoin:     4 * time.Second,
	captureDur:    time.Minute,
	capturePeers:  1,
	setups:        31,
	captureSetups: 3,
	setupTime:     2 * time.Second,
	lookups:       400_000,
}

// setupHorizon is the smallest virtual horizon every workload's
// configuration accepts. A run to it builds the world, registers every
// node, compiles the scenario and reduces an empty capture: the fixed cost
// a user pays before the first simulated second.
const setupHorizon = time.Millisecond

// bench is one invocation's fixed inputs.
type bench struct {
	seed    int64
	size    sizes
	workers int
	workdir string // scratch space inside the checkout (trace archives)
	refs    map[string]reference
}

// prepared is what a workload's set-up leaves for its iterations.
type prepared struct {
	iterate func(it *iter)
	// worlds are the world specs one iteration builds, for the
	// world-build and path-lookup drivers.
	worlds []world.Spec
	// decode, when set, makes one decode-only pass over the trace archive
	// and returns the records read and the archive's size in bytes.
	decode func() (records, bytes int64, err error)
	// check, when set, makes one untimed pass after the iterations that
	// runs the output checks the timed path leaves out; its ledger totals
	// stand for the iterations'.
	check   func(it *iter)
	cleanup func()
}

// iter collects what one workload iteration did and whether its outputs
// passed their checks.
type iter struct {
	n     int
	tr    *tracer // nil when untraced
	root  int     // the iteration's span
	start time.Time

	units, failed int
	failures      []string

	digest   string
	events   uint64
	peerSecs float64 // population x virtual seconds, summed over cells
	records  int64   // what records_per_s counts: trace records decoded, or engine events simulated
	runNS    int64   // wall time of the simulated cells, summed
	decoded  int64   // trace records decoded (trace-replay)
	led      ledgerSum

	mu    sync.Mutex
	cells []cellTime

	wall, cpu time.Duration
	gc        gcSample
	peakRSS   float64 // MiB
}

type cellTime struct{ wait, dur time.Duration }

// unit records one attempted run or cell and the first check it failed.
func (it *iter) unit(err error) {
	it.units++
	if err != nil {
		it.failed++
		it.failures = append(it.failures, err.Error())
	}
}

// failCells records n attempted cells that all failed with err.
func (it *iter) failCells(n int, err error) {
	for range n {
		it.unit(err)
	}
}

// failAll marks every unit of the iteration failed by an output check
// that covers the whole iteration (its digest).
func (it *iter) failAll(err error) {
	it.failed = it.units
	it.failures = append(it.failures, err.Error())
}

func (it *iter) addCell(wait, dur time.Duration) {
	it.mu.Lock()
	it.cells = append(it.cells, cellTime{wait: wait, dur: dur})
	it.runNS += int64(dur)
	it.mu.Unlock()
}

// addResult checks one simulated run and folds its counters in.
func (it *iter) addResult(r *napawine.Result) error {
	it.events += r.Events
	it.peerSecs += peerSeconds(r)
	it.records += int64(r.Events)
	it.led.add(r)
	return checkLedger(r)
}

// peerSeconds is a run's simulated population times its virtual horizon.
func peerSeconds(r *napawine.Result) float64 {
	return population(r) * r.Duration.Seconds()
}

// population counts the peers a run's world placed, the source included.
func population(r *napawine.Result) float64 {
	w := r.World
	return float64(len(w.Probes) + len(w.Background) + len(w.Deferred) + 1)
}

// ledgerSum totals the overlay and access counters of an iteration's runs.
type ledgerSum struct {
	chunks, signal, timeouts, rejections int64
	drops, retransmits, backoffs         int64
	videoTotal, videoIntra               int64
}

func (s *ledgerSum) add(r *napawine.Result) {
	led := r.Ledger
	if led == nil {
		return
	}
	s.chunks += led.ChunksServedTotal
	s.signal += led.SignalTotal
	s.timeouts += led.TimeoutsTotal
	s.rejections += led.RejectionsTotal
	s.drops += led.DropsTotal
	s.retransmits += led.RetransmitsTotal
	s.backoffs += led.BackoffsTotal
	s.videoTotal += led.VideoTotal
	s.videoIntra += led.VideoIntraAS
}

// cellObserver times study cells from the observer callbacks and, when
// the iteration is traced, records cell and bucket spans.
type cellObserver struct {
	it   *iter
	mu   sync.Mutex
	open map[int]*openCell
}

type openCell struct {
	start, last time.Time
	span        int
}

func newCellObserver(it *iter) *cellObserver {
	return &cellObserver{it: it, open: make(map[int]*openCell)}
}

func (o *cellObserver) OnRunStart(info napawine.StudyRunInfo) {
	now := time.Now()
	sp := o.it.tr.begin("experiment.run", o.it.root)
	o.mu.Lock()
	o.open[info.Index] = &openCell{start: now, last: now, span: sp}
	o.mu.Unlock()
}

func (o *cellObserver) OnSample(info napawine.StudyRunInfo, _ napawine.SeriesSample) {
	if o.it.tr == nil {
		return
	}
	now := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	if c := o.open[info.Index]; c != nil {
		o.it.tr.record("experiment.bucket", c.span, c.last, now)
		c.last = now
	}
}

func (o *cellObserver) OnRunDone(info napawine.StudyRunInfo, _ napawine.RunSummary, _ error) {
	now := time.Now()
	o.mu.Lock()
	c := o.open[info.Index]
	delete(o.open, info.Index)
	o.mu.Unlock()
	if c == nil {
		return
	}
	o.it.tr.end(c.span)
	o.it.addCell(c.start.Sub(o.it.start), now.Sub(c.start))
}

// outcome is one invocation's measurements.
type outcome struct {
	setup     []float64
	iters     []*iter
	led       ledgerSum
	attempted int
	failed    int
	failures  []string
	spans     []span

	worldBuild []float64 // seconds per pass over the workload's worlds
	lookupNS   []float64 // ns per host pair, per pass
	decodeNS   []float64 // ns per record of the decode-only pass
	traceBytes int64
	workers    int
}

// measure runs set-up, then iterations for the given wall time, then (when
// traced) the driver passes. In a traced invocation every second iteration
// records spans and the others give the untraced baseline for the tracing
// overhead.
func measure(b *bench, w workload, seconds float64, traced bool) (*outcome, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	out := &outcome{workers: w.workers(b)}
	var prep *prepared
	reps := b.size.setups
	if w.name == "trace-replay" {
		reps = b.size.captureSetups
	}
	// Each set-up starts from a collected heap, so none pays for the
	// garbage of the one before.
	setupStart := time.Now()
	for n := 0; n < reps || time.Since(setupStart) < b.size.setupTime; n++ {
		runtime.GC()
		sp := tr.begin("bench.setup", 0)
		t0 := time.Now()
		p, err := w.setup(b, tr, sp)
		d := time.Since(t0)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		if prep != nil && prep.cleanup != nil {
			prep.cleanup()
		}
		prep = p
		out.setup = append(out.setup, d.Seconds())
	}
	if prep.cleanup != nil {
		defer prep.cleanup()
	}

	// Iterations stop before one more would, at the last one's pace, run
	// past the budget, so a run's length stays near --seconds whatever the
	// iteration size; a check pass takes one iteration's share of it. A
	// traced run needs one traced and one untraced iteration.
	budget := time.Duration(seconds * float64(time.Second))
	minIters := 1
	if traced {
		minIters = 2
	}
	start := time.Now()
	for n := 1; ; n++ {
		it := &iter{n: n}
		if traced && n%2 == 0 {
			it.tr = tr
			tr.setRun(n)
		}
		// Each iteration starts from a collected heap returned to the
		// kernel, with the resident high-water mark restarted, so its
		// peak is its own and not set-up's or the previous iteration's.
		// Where the mark cannot be restarted the peak is the process's.
		debug.FreeOSMemory()
		resetPeakRSS()
		it.root = it.tr.begin("bench.iteration", 0)
		g0, c0 := readGC(), cpuTime()
		it.start = time.Now()
		prep.iterate(it)
		it.wall = time.Since(it.start)
		it.cpu = cpuTime() - c0
		it.gc = readGC().sub(g0)
		it.tr.end(it.root)
		it.peakRSS = peakRSSMB()
		out.iters = append(out.iters, it)
		reserve := time.Duration(0)
		if prep.check != nil {
			reserve = it.wall
		}
		if n >= minIters && time.Since(start)+it.wall+reserve > budget {
			break
		}
	}
	tr.setRun(0)

	checked := out.iters
	out.led = out.iters[0].led
	if prep.check != nil {
		ck := &iter{n: len(out.iters) + 1, start: time.Now()}
		prep.check(ck)
		checked = append(checked[:len(checked):len(checked)], ck)
		out.led = ck.led
	}
	checkDigests(b, w, checked)
	for _, it := range checked {
		out.attempted += it.units
		out.failed += it.failed
		out.failures = append(out.failures, it.failures...)
	}

	if traced {
		if err := drivers(b, prep, tr, out); err != nil {
			return nil, err
		}
		out.spans = tr.snapshot()
	}
	return out, nil
}

// checkDigests requires every iteration and the check pass to render the
// same output and, at the reference seed, the recorded digest and event
// count.
func checkDigests(b *bench, w workload, iters []*iter) {
	first := iters[0]
	for _, it := range iters[1:] {
		if it.digest != first.digest {
			it.failAll(fmt.Errorf("iteration %d: output digest %s differs from iteration 1's %s", it.n, it.digest, first.digest))
		}
	}
	ref, ok := b.refs[w.name]
	if !ok || ref.Seed != b.seed {
		return
	}
	if first.digest != ref.Digest || first.events != ref.Events {
		err := fmt.Errorf("reference seed %d: digest %s with %d events, want %s with %d events",
			ref.Seed, first.digest, first.events, ref.Digest, ref.Events)
		for _, it := range iters {
			it.failAll(err)
		}
	}
}

// drivers make the traced invocation's extra passes: the workload's world
// builds, the topology path lookups over those worlds, and trace-replay's
// decode-only pass. Each pass repeats three times.
func drivers(b *bench, prep *prepared, tr *tracer, out *outcome) error {
	var worlds []*world.World
	for range 3 {
		worlds = worlds[:0]
		t0 := time.Now()
		for _, spec := range prep.worlds {
			sp := tr.begin("world.build", 0)
			wd, err := world.Build(spec)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("world build: %w", err)
			}
			worlds = append(worlds, wd)
		}
		out.worldBuild = append(out.worldBuild, time.Since(t0).Seconds())
	}

	// Host pairs are drawn with the benchmark seed from the worlds this
	// workload built, spread evenly across them.
	rng := rand.New(rand.NewSource(b.seed))
	type pair struct {
		topo *topology.Topology
		a, b topology.Host
	}
	hosts := make([][]topology.Host, len(worlds))
	for i, wd := range worlds {
		hosts[i] = worldHosts(wd)
	}
	pairs := make([]pair, 0, b.size.lookups)
	for i := range b.size.lookups {
		k := i % len(worlds)
		hs := hosts[k]
		pairs = append(pairs, pair{worlds[k].Topo, hs[rng.Intn(len(hs))], hs[rng.Intn(len(hs))]})
	}
	var sink int64
	for range 3 {
		sp := tr.begin("topology.lookup", 0)
		t0 := time.Now()
		for _, p := range pairs {
			sink += int64(p.topo.OneWayDelay(p.a, p.b)) + int64(p.topo.HopCount(p.a, p.b))
		}
		d := time.Since(t0)
		tr.end(sp)
		out.lookupNS = append(out.lookupNS, float64(d.Nanoseconds())/float64(len(pairs)))
	}
	if sink == 0 {
		return fmt.Errorf("path lookups: every delay and hop count was zero")
	}

	if prep.decode != nil {
		for range 3 {
			sp := tr.begin("packet.decode", 0)
			t0 := time.Now()
			n, size, err := prep.decode()
			d := time.Since(t0)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("decode pass: %w", err)
			}
			if n > 0 {
				out.decodeNS = append(out.decodeNS, float64(d.Nanoseconds())/float64(n))
			}
			out.traceBytes = size
		}
	}
	return nil
}

// worldHosts lists every host a world placed.
func worldHosts(w *world.World) []topology.Host {
	hosts := make([]topology.Host, 0, 1+len(w.Probes)+len(w.Background)+len(w.Deferred))
	hosts = append(hosts, w.SourceHost)
	for _, p := range w.Probes {
		hosts = append(hosts, p.Host)
	}
	for _, p := range w.Background {
		hosts = append(hosts, p.Host)
	}
	for _, p := range w.Deferred {
		hosts = append(hosts, p.Host)
	}
	return hosts
}

// endToEnd computes the end-to-end metrics from the untraced iterations.
func endToEnd(out *outcome) []metric {
	var wall, cpu, rss, peerRate, recRate, cells []float64
	for _, it := range out.iters {
		if it.tr != nil {
			continue
		}
		s := it.wall.Seconds()
		wall = append(wall, s)
		cpu = append(cpu, it.cpu.Seconds())
		rss = append(rss, it.peakRSS)
		peerRate = append(peerRate, it.peerSecs/s)
		recRate = append(recRate, float64(it.records)/s)
		for _, c := range it.cells {
			cells = append(cells, c.dur.Seconds())
		}
	}
	passed := 1.0
	if out.attempted > 0 {
		passed = 1 - float64(out.failed)/float64(out.attempted)
	}
	return []metric{
		{"wall_s", median(wall), "s"},
		{"cpu_s", median(cpu), "s"},
		{"setup_s", median(out.setup), "s"},
		{"peak_rss_mb", median(rss), "MiB"},
		{"passed_frac", passed, "ratio"},
		{"peer_s_per_s", median(peerRate), "1/s"},
		{"cell_s_p50", median(cells), "s"},
		{"records_per_s", median(recRate), "1/s"},
	}
}

// perLayer computes the per-layer metrics from the traced iterations, the
// spans and the driver passes.
func perLayer(out *outcome) []metric {
	var traced, untraced []*iter
	for _, it := range out.iters {
		if it.tr != nil {
			traced = append(traced, it)
		} else {
			untraced = append(untraced, it)
		}
	}
	over := func(its []*iter, f func(*iter) float64) float64 {
		xs := make([]float64, 0, len(its))
		for _, it := range its {
			xs = append(xs, f(it))
		}
		return median(xs)
	}
	byRun := func(m map[int]time.Duration) float64 {
		return over(traced, func(it *iter) float64 { return m[it.n].Seconds() })
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	spans := out.spans
	self := selfTimes(spans)
	wall := func(it *iter) float64 { return it.wall.Seconds() }

	var waits []float64
	for _, it := range traced {
		for _, c := range it.cells {
			waits = append(waits, c.wait.Seconds())
		}
	}
	decodeNS := median(out.decodeNS)
	fromTrace := sumByRun(spans, "analysis.from_trace")

	ms := []metric{
		{"sim.events", over(traced, func(it *iter) float64 { return float64(it.events) }), "count"},
		{"sim.ns_per_event", over(traced, func(it *iter) float64 { return ratio(float64(it.runNS), float64(it.events)) }), "ns"},
		{"overlay.chunks_served", float64(out.led.chunks), "count"},
		{"overlay.signal_bytes", float64(out.led.signal), "bytes"},
		{"overlay.ns_per_chunk", over(traced, func(it *iter) float64 { return ratio(float64(it.runNS), float64(out.led.chunks)) }), "ns"},
		{"overlay.ns_per_signal_kb", over(traced, func(it *iter) float64 { return ratio(float64(it.runNS), float64(out.led.signal)/1000) }), "ns"},
		{"overlay.intra_as_share", ratio(float64(out.led.videoIntra), float64(out.led.videoTotal)), "ratio"},
		{"overlay.timeouts", float64(out.led.timeouts), "count"},
		{"overlay.rejections", float64(out.led.rejections), "count"},
		{"topology.ns_per_path_lookup", median(out.lookupNS), "ns"},
		{"access.drops", float64(out.led.drops), "count"},
		{"access.retransmits", float64(out.led.retransmits), "count"},
		{"access.backoffs", float64(out.led.backoffs), "count"},
		{"access.served_ratio", ratio(float64(out.led.chunks), float64(out.led.chunks+out.led.drops)), "ratio"},
		{"world.build_s", median(out.worldBuild), "s"},
		{"experiment.run_s", median(durations(spans, "experiment.run")), "s"},
		{"experiment.bucket_wall_s_p50", median(durations(spans, "experiment.bucket")), "s"},
		{"experiment.reduce_s", byRun(sumByRun(spans, "experiment.reduce")), "s"},
		{"study.queue_wait_s", median(waits), "s"},
		{"study.worker_idle_frac", over(traced, func(it *iter) float64 {
			var busy time.Duration
			for _, c := range it.cells {
				busy += c.dur
			}
			return max(0, 1-ratio(float64(busy), float64(out.workers)*float64(it.wall)))
		}), "ratio"},
		{"packet.records", over(traced, func(it *iter) float64 { return float64(it.decoded) }), "count"},
		{"packet.trace_mb", float64(out.traceBytes) / 1e6, "MB"},
		{"packet.ns_per_record", decodeNS, "ns"},
		{"analysis.ns_per_record", over(traced, func(it *iter) float64 {
			if it.decoded == 0 {
				return 0
			}
			return float64(fromTrace[it.n].Nanoseconds())/float64(it.decoded) - decodeNS
		}), "ns"},
		{"analysis.observations_s", byRun(sumByRun(spans, "analysis.observations")), "s"},
		{"core.compute_s", byRun(sumByRun(spans, "core.compute")), "s"},
		{"report.render_s", byRun(sumByRun(spans, "report.render")), "s"},
		{"gc.alloc_bytes_per_peer_s", over(out.iters, func(it *iter) float64 { return ratio(it.gc.allocBytes, it.peerSecs) }), "bytes"},
		{"gc.cycles", over(out.iters, func(it *iter) float64 { return it.gc.cycles }), "count"},
		{"gc.cpu_frac", over(out.iters, func(it *iter) float64 { return ratio(it.gc.gcCPU, it.gc.totalCPU) }), "ratio"},
	}
	for _, layer := range selfTimeLayers {
		ms = append(ms, metric{layer + ".self_s", byRun(self[layer]), "s"})
	}
	ms = append(ms, metric{"trace.overhead_s", over(traced, wall) - over(untraced, wall), "s"})
	return ms
}

// selfTimeLayers are the span names whose self time the traced run reports,
// from the iteration down to the calls it makes into each layer.
var selfTimeLayers = []string{
	"bench.iteration",
	"experiment.run",
	"experiment.bucket",
	"experiment.reduce",
	"replay.cell",
	"analysis.from_trace",
	"analysis.observations",
	"core.compute",
	"report.render",
}

type metric struct {
	name  string
	value float64
	unit  string
}

// spanNames lists the distinct span names, sorted, for the self-time table.
func spanNames(spans []span) []string {
	seen := map[string]bool{}
	for _, s := range spans {
		seen[s.Name] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
