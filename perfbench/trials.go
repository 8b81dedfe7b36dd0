package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"wsncover/internal/coverage"
	"wsncover/internal/experiment"
	"wsncover/internal/geom"
	"wsncover/internal/grid"
	"wsncover/internal/hamilton"
	"wsncover/internal/network"
	"wsncover/internal/randx"
	"wsncover/internal/sim"
)

// trialStreams is how many campaign streams run at once, each on one
// trial worker: nproc on the reference box, never more.
const trialStreams = 2

// refWorkers is the trial worker count of the reference campaigns run
// outside the timed window.
const refWorkers = 2

// trialWorkload is an in-process campaign workload: one request is the
// campaign list request returns, run over and over; an op is one trial.
// Run length changes how many requests run, never a campaign's shape,
// so per-campaign arena builds amortize identically in every run.
type trialWorkload struct {
	geometries []sim.GridSize
	request    func(rng *rand.Rand) []sim.CampaignSpec
	// checks is how many recorded trials are re-run through the fresh
	// executable specification (sim.RunTrial) after the window.
	checks int
	// setupBatch is the number of set-ups in one timed batch.
	setupBatch int
}

// ranTrial is one trial the window executed, kept for the checks.
type ranTrial struct {
	spec   sim.CampaignSpec
	job    sim.TrialJob
	sample experiment.Sample
	res    sim.TrialResult // traced trials only
}

// streamRun is what one stream did in a window.
type streamRun struct {
	trials    []ranTrial
	latencies []time.Duration
	elapsed   time.Duration
	err       error
}

// runStreams runs trialStreams streams, each a caller running the
// workload's requests back to back on one trial worker and starting
// whole requests until the window has passed, so every campaign in a
// run has the same shape. Sink calls come straight after their trials,
// so the interval between them is a trial's latency. The meter covers
// all streams.
func runStreams(cfg config, w trialWorkload, stream uint64, window time.Duration,
	campaign func(spec sim.CampaignSpec, sr *streamRun) error) ([]*streamRun, usage, error) {
	runs := make([]*streamRun, trialStreams)
	m := startMeter()
	deadline := m.start.Add(window)
	var wg sync.WaitGroup
	for s := range runs {
		runs[s] = &streamRun{}
		rng := cfg.rng(stream + uint64(s))
		wg.Add(1)
		go func(sr *streamRun) {
			defer wg.Done()
			defer func() { sr.elapsed = time.Since(m.start) }()
			for time.Now().Before(deadline) {
				for _, spec := range w.request(rng) {
					if err := campaign(spec, sr); err != nil {
						sr.err = err
						return
					}
				}
			}
		}(runs[s])
	}
	wg.Wait()
	use := m.stop()
	for _, sr := range runs {
		if sr.err != nil {
			return nil, usage{}, sr.err
		}
	}
	return runs, use, nil
}

// engineStream runs one campaign on the engine with one worker.
func engineStream(spec sim.CampaignSpec, sr *streamRun) error {
	last := time.Now()
	return sim.RunCampaignStream(context.Background(), spec, experiment.Options{Workers: 1},
		func(j sim.TrialJob, s experiment.Sample) error {
			now := time.Now()
			sr.trials = append(sr.trials, ranTrial{spec: spec, job: j, sample: s})
			sr.latencies = append(sr.latencies, now.Sub(last))
			last = now
			return nil
		})
}

// collect folds the streams into one measurement. ops_per_s sums each
// stream's trials over its own elapsed time, so a stream idling while
// the other ends its last campaign does not count against throughput.
func collect(runs []*streamRun, setup []time.Duration, use usage) (e2e, []ranTrial) {
	ex := e2e{setup: setup, use: use}
	var all []ranTrial
	for _, sr := range runs {
		ex.ops += len(sr.trials)
		ex.rate += float64(len(sr.trials)) / sr.elapsed.Seconds()
		ex.latencies = append(ex.latencies, sr.latencies...)
		all = append(all, sr.trials...)
	}
	return ex, all
}

func runTrialWorkload(cfg config, w trialWorkload) (*report, error) {
	rep := &report{}
	rng := cfg.rng(1)
	window := cfg.window
	if cfg.trace {
		window /= 2
	}
	setup, err := timeSetup(w.setupBatch, func() error { return buildTopologies(nil, w.geometries) }, nil)
	if err != nil {
		return nil, err
	}
	for _, g := range w.geometries {
		if _, err := hamilton.Shared(mustSystem(g)); err != nil {
			return nil, err
		}
	}
	runs, use, err := runStreams(cfg, w, 10, window, engineStream)
	if err != nil {
		return nil, err
	}
	ex, ran := collect(runs, setup, use)
	rep.attempted = len(ran)

	// References are computed outside the timed window.
	for _, k := range pickIndexes(rng, len(ran), w.checks) {
		t := ran[k]
		res, err := sim.RunTrial(trialConfig(t.spec, t.job))
		if err != nil {
			return nil, err
		}
		got := t.sample
		if cfg.corrupt == chkSample {
			got = corruptSample(got)
		}
		rep.check(chkSample, sameSample(got, sim.SampleOf(t.job, res)),
			fmt.Sprintf("trial %s N=%d seed %d differs from sim.RunTrial", t.job.Group(), t.job.Spares, t.job.Seed))
	}

	if !cfg.trace {
		rep.addE2E(ex)
		return rep, nil
	}
	if err := tracedTrials(cfg, w, rng, ex, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

func mustSystem(g sim.GridSize) *grid.System {
	sys, err := grid.NewForCommRange(g.Cols, g.Rows, sim.PaperCommRange, geom.Pt(0, 0))
	if err != nil {
		panic(err) // the workload geometries are constants
	}
	return sys
}

// buildTopologies is one set-up: the Hamilton topology of every
// geometry the workload runs, which hamilton.Shared builds once per
// process.
func buildTopologies(tr *tracer, gs []sim.GridSize) error {
	for _, g := range gs {
		sp := tr.begin("hamilton.build", 0, -1)
		_, err := hamilton.Build(mustSystem(g))
		tr.end(sp, 1)
		if err != nil {
			return err
		}
	}
	return nil
}

// trialConfig resolves a campaign job into the trial configuration the
// campaign engine runs it with.
func trialConfig(s sim.CampaignSpec, j sim.TrialJob) sim.TrialConfig {
	return sim.TrialConfig{
		Cols:            j.Grid.Cols,
		Rows:            j.Grid.Rows,
		CommRange:       s.CommRange,
		Spares:          j.Spares,
		Holes:           j.Holes,
		AdjacentHolesOK: s.AdjacentHolesOK,
		Workload:        j.Workload,
		Runner:          j.Runner,
		ClaimTTL:        j.ClaimTTL,
		JamRadius:       s.JamRadius,
		Scheme:          j.Scheme,
		Seed:            j.Seed,
		ARInitProb:      s.ARInitProb,
		ARMaxHops:       s.ARMaxHops,
	}
}

// pickIndexes draws up to k distinct indexes below n.
func pickIndexes(rng *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	return rng.Perm(n)[:k]
}

// sameSample compares two samples bit for bit (NaN equals NaN).
func sameSample(a, b experiment.Sample) bool {
	if a.Group != b.Group || a.X != b.X || len(a.Values) != len(b.Values) {
		return false
	}
	for k, v := range a.Values {
		w, ok := b.Values[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

func corruptSample(s experiment.Sample) experiment.Sample {
	vals := make(map[string]float64, len(s.Values))
	for k, v := range s.Values {
		vals[k] = v
	}
	vals["moves"]++
	s.Values = vals
	return s
}

// breakTrial moves one enabled node of a finished trial onto its own
// position: the network then counts a move no controller charged, which
// the move-accounting invariant must catch.
func breakTrial(t *sim.Trial) error {
	net := t.Network()
	ids := net.EnabledIDs(nil)
	if len(ids) == 0 {
		return fmt.Errorf("breakTrial: no enabled node")
	}
	return net.MoveNode(ids[0], net.Node(ids[0]).Location())
}

// layerCounts accumulates the traced run's per-layer counters.
type layerCounts struct {
	mu         sync.Mutex
	trials     int
	sr, ar     schemeCounts
	async      asyncCounts
	events     int64
	nodes      int64
	resets     int
	resetTime  time.Duration
	deployTime time.Duration
	assemble   time.Duration
	finalize   time.Duration
	headgraph  time.Duration
	summarize  time.Duration
}

type schemeCounts struct {
	trials              int
	rounds              int64
	stepTime            time.Duration
	moves, messages     int64
	converged, initiate int64
}

type asyncCounts struct {
	trials              int
	runTime             time.Duration
	simS                float64
	converged, initiate int64
}

// stepCounter wraps a scheme so the schedule loop's rounds are timed
// and counted, and the pre-damage hole count is read exactly where the
// engine reads it: after the round-0 events, before the first step.
type stepCounter struct {
	sim.Scheme
	net         *network.Network
	rounds      int64
	stepTime    time.Duration
	holesBefore int
	holesTime   time.Duration
}

func (s *stepCounter) Step() error {
	if s.rounds == 0 {
		t0 := time.Now()
		s.holesBefore = coverage.HoleCount(s.net)
		s.holesTime = time.Since(t0)
	}
	t0 := time.Now()
	err := s.Scheme.Step()
	s.stepTime += time.Since(t0)
	s.rounds++
	return err
}

// ResetFailed forwards a rally to schemes that support it.
func (s *stepCounter) ResetFailed() {
	if r, ok := s.Scheme.(interface{ ResetFailed() }); ok {
		r.ResetFailed()
	}
}

// trialWorld is one traced worker's pooled network, rebuilt for each
// campaign like the engine's per-campaign arenas.
type trialWorld struct {
	net  *network.Network
	cols int
	rows int
}

// decomposedTrial runs one sync trial through the public stage
// functions — Reset, the schedule's Deploy, BuildScheme, RunSchedule,
// the coverage calls and Summarize — inside spans.
func decomposedTrial(tr *tracer, lc *layerCounts, world *trialWorld, id int64, cfg sim.TrialConfig) (sim.TrialResult, error) {
	if cfg.CommRange == 0 {
		cfg.CommRange = sim.PaperCommRange
	}
	if cfg.Holes == 0 {
		cfg.Holes = 1
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 2*cfg.Cols*cfg.Rows + 16
	}
	root := tr.begin("sim.trial", id, -1)
	defer tr.end(root, 0)

	t0 := time.Now()
	wl, err := sim.BuildWorkload(cfg.Workload)
	if err != nil {
		return sim.TrialResult{}, err
	}
	sched, err := wl.Schedule(&cfg)
	if err != nil {
		return sim.TrialResult{}, err
	}
	assemble := time.Since(t0)
	tr.record("sim.assemble", id, root, t0, assemble, 0)

	var resetTime time.Duration
	t0 = time.Now()
	if world.net != nil && world.cols == cfg.Cols && world.rows == cfg.Rows {
		world.net.Reset()
		resetTime = time.Since(t0)
		tr.record("network.reset", id, root, t0, resetTime, 1)
	} else {
		sys, err := grid.NewForCommRange(cfg.Cols, cfg.Rows, cfg.CommRange, geom.Pt(0, 0))
		if err != nil {
			return sim.TrialResult{}, err
		}
		world.net = network.New(sys, cfg.EnergyModel)
		world.cols, world.rows = cfg.Cols, cfg.Rows
		tr.record("network.build", id, root, t0, time.Since(t0), 1)
	}
	net := world.net

	rng := randx.New(cfg.Seed)
	t0 = time.Now()
	if sched.Deploy != nil {
		if err := sched.Deploy(net, rng); err != nil {
			return sim.TrialResult{}, err
		}
	}
	deployTime := time.Since(t0)
	tr.record("deploy.deploy", id, root, t0, deployTime, int64(net.NumNodes()))

	t0 = time.Now()
	scheme, err := sim.BuildScheme(net, cfg, rng.Split(3))
	if err != nil {
		return sim.TrialResult{}, err
	}
	d := time.Since(t0)
	assemble += d
	tr.record("sim.assemble", id, root, t0, d, 0)

	var events int64
	var eventTime time.Duration
	evs := make([]sim.Event, len(sched.Events))
	for i, ev := range sched.Events {
		apply := ev.Apply
		ev.Apply = func(n *network.Network, r *randx.Rand, round int) error {
			t := time.Now()
			err := apply(n, r, round)
			eventTime += time.Since(t)
			events++
			return err
		}
		evs[i] = ev
	}
	sched.Events = evs
	sc := &stepCounter{Scheme: scheme, net: net}
	runStart := time.Now()
	run := tr.begin("sim.run_schedule", id, root)
	rounds, err := sim.RunSchedule(sc, net, sched, rng.Split(4), cfg.MaxRounds)
	tr.end(run, 0)
	if err != nil {
		return sim.TrialResult{}, err
	}
	layer := "core"
	if cfg.Scheme == sim.AR {
		layer = "ar"
	}
	at := runStart
	tr.record(layer+".rounds", id, run, at, sc.stepTime, sc.rounds)
	at = at.Add(sc.stepTime)
	tr.record("sim.events", id, run, at, eventTime, events)
	at = at.Add(eventTime)
	tr.record("coverage.holes_before", id, run, at, sc.holesTime, 0)

	fin := tr.begin("coverage.finalize", id, root)
	t0 = time.Now()
	holesAfter := coverage.HoleCount(net)
	complete := coverage.Complete(net)
	hg := tr.begin("coverage.headgraph", id, fin)
	t1 := time.Now()
	connected := net.HeadGraphConnected()
	headgraph := time.Since(t1)
	tr.end(hg, 0)
	finalize := time.Since(t0) + sc.holesTime
	tr.end(fin, 0)

	t0 = time.Now()
	sum := scheme.Collector().Summarize()
	summarize := time.Since(t0)
	tr.record("metrics.summarize", id, root, t0, summarize, 0)

	lc.mu.Lock()
	lc.trials++
	sc0 := &lc.sr
	if cfg.Scheme == sim.AR {
		sc0 = &lc.ar
	}
	sc0.trials++
	sc0.rounds += sc.rounds
	sc0.stepTime += sc.stepTime
	sc0.moves += int64(sum.Moves)
	sc0.messages += int64(sum.Messages)
	sc0.converged += int64(sum.Converged)
	sc0.initiate += int64(sum.Initiated)
	lc.events += events
	lc.nodes += int64(net.NumNodes())
	if resetTime > 0 {
		lc.resets++
		lc.resetTime += resetTime
	}
	lc.deployTime += deployTime
	lc.assemble += assemble
	lc.finalize += finalize
	lc.headgraph += headgraph
	lc.summarize += summarize
	lc.mu.Unlock()

	return sim.TrialResult{
		Summary:     sum,
		Rounds:      rounds,
		HolesBefore: sc.holesBefore,
		HolesAfter:  holesAfter,
		Complete:    complete,
		Connected:   connected,
	}, nil
}

// asyncTrial runs one async-runner trial: assembly through sim.NewTrial,
// then Trial.Run, whose closing coverage calls are re-timed on the
// finished network and subtracted from the async layer.
func asyncTrial(tr *tracer, lc *layerCounts, id int64, cfg sim.TrialConfig) (sim.TrialResult, error) {
	root := tr.begin("sim.trial", id, -1)
	defer tr.end(root, 0)
	t0 := time.Now()
	t, err := sim.NewTrial(cfg)
	if err != nil {
		return sim.TrialResult{}, err
	}
	assemble := time.Since(t0)
	tr.record("sim.assemble", id, root, t0, assemble, 0)
	t0 = time.Now()
	run := tr.begin("async.run", id, root)
	res, err := t.Run()
	tr.end(run, 0)
	runTime := time.Since(t0)
	if err != nil {
		return sim.TrialResult{}, err
	}
	t1 := time.Now()
	coverage.HoleCount(t.Network())
	coverage.Complete(t.Network())
	t2 := time.Now()
	t.Network().HeadGraphConnected()
	headgraph := time.Since(t2)
	finalize := time.Since(t1)
	fin := tr.record("coverage.finalize", id, run, t0.Add(runTime-finalize), finalize, 0)
	tr.record("coverage.headgraph", id, fin, t0.Add(runTime-headgraph), headgraph, 0)

	lc.mu.Lock()
	lc.trials++
	lc.async.trials++
	lc.async.runTime += runTime - finalize
	lc.async.simS += float64(res.Rounds) * 0.5
	lc.async.converged += int64(res.Summary.Converged)
	lc.async.initiate += int64(res.Summary.Initiated)
	lc.assemble += assemble
	lc.finalize += finalize
	lc.headgraph += headgraph
	lc.mu.Unlock()
	return res, nil
}

// tracedTrials is the traced half of a trace run: the same streams,
// with every sync trial driven through the decomposed stage functions,
// then checked against the campaign engine.
func tracedTrials(cfg config, w trialWorkload, rng *rand.Rand, untraced e2e, rep *report) error {
	tr := newTracer()
	lc := &layerCounts{}
	setup, err := timeSetup(w.setupBatch, func() error { return buildTopologies(tr, w.geometries) }, nil)
	if err != nil {
		return err
	}
	var nextID atomic.Int64
	runs, use, err := runStreams(cfg, w, 20, cfg.window/2,
		func(spec sim.CampaignSpec, sr *streamRun) error {
			world := &trialWorld{}
			last := time.Now()
			for _, j := range spec.Jobs() {
				c := trialConfig(spec, j)
				id := nextID.Add(1)
				var res sim.TrialResult
				var err error
				if c.Runner == sim.RunAsync {
					res, err = asyncTrial(tr, lc, id, c)
				} else {
					res, err = decomposedTrial(tr, lc, world, id, c)
				}
				if err != nil {
					return err
				}
				now := time.Now()
				sr.trials = append(sr.trials, ranTrial{spec: spec, job: j, res: res})
				sr.latencies = append(sr.latencies, now.Sub(last))
				last = now
			}
			return nil
		})
	if err != nil {
		return err
	}
	ex, all := collect(runs, setup, use)
	rep.attempted += len(all)

	// The decomposed path must be the program the engine runs: every
	// traced trial is compared with the engine's sample for its job.
	// Consecutive trials of one campaign share its base seed.
	var campaignTime time.Duration
	campaigns := 0
	for lo := 0; lo < len(all); {
		hi := lo + 1
		for hi < len(all) && all[hi].spec.BaseSeed == all[lo].spec.BaseSeed {
			hi++
		}
		camp := all[lo:hi]
		spec := camp[0].spec
		i := 0
		t0 := time.Now()
		err := sim.RunCampaignStream(context.Background(), spec, experiment.Options{Workers: refWorkers},
			func(j sim.TrialJob, s experiment.Sample) error {
				got := sim.SampleOf(camp[i].job, camp[i].res)
				if cfg.corrupt == chkDecomposed {
					got = corruptSample(got)
				}
				rep.check(chkDecomposed, jobKey(j) == jobKey(camp[i].job) && sameSample(got, s),
					fmt.Sprintf("decomposed trial %s N=%d seed %d differs from the campaign engine", j.Group(), j.Spares, j.Seed))
				i++
				return nil
			})
		if err != nil {
			return err
		}
		campaignTime += time.Since(t0)
		campaigns++
		lo = hi
	}
	// The invariant oracle over a sample of the traced jobs.
	for _, k := range pickIndexes(rng, len(all), w.checks) {
		t, err := sim.NewTrial(trialConfig(all[k].spec, all[k].job))
		if err != nil {
			return err
		}
		if _, err := t.Run(); err != nil {
			return err
		}
		if cfg.corrupt == chkInvariants {
			if err := breakTrial(t); err != nil {
				return err
			}
		}
		v := sim.CheckInvariants(t)
		rep.check(chkInvariants, len(v) == 0,
			fmt.Sprintf("invariants of %s seed %d: %v", all[k].job.Group(), all[k].job.Seed, v))
	}

	setLayerDefaults(rep)
	rep.set("hamilton.build_ms", "ms", ms(quantile(setup, 0.5))/float64(len(w.geometries)))
	lc.report(rep)
	rep.set("experiment.campaign_ms", "ms", ms(campaignTime)/float64(campaigns))
	rep.addRuntime(ex.use, ex.ops)
	rep.addOverhead(untraced, ex)
	tr.layerShares(rep, layers)
	if path, err := tr.write(cfg.traceDir(), fmt.Sprintf("seed-%d.ndjson", cfg.seed)); err == nil {
		fmt.Fprintln(stderr, "perfbench: spans written to", path)
	}
	return nil
}

// jobKey identifies a job within its campaign.
func jobKey(j sim.TrialJob) string {
	return fmt.Sprintf("%s|%d|%d", j.Group(), j.Spares, j.Replicate)
}

func perTrial(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return ms(d) / float64(n)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (lc *layerCounts) report(r *report) {
	n := lc.trials
	r.set("network.reset_ms_per_trial", "ms", perTrial(lc.resetTime, lc.resets))
	r.set("deploy.ms_per_trial", "ms", perTrial(lc.deployTime, n-lc.async.trials))
	r.set("deploy.nodes_per_trial", "count", ratio(lc.nodes, int64(n-lc.async.trials)))
	r.set("sim.assemble_ms_per_trial", "ms", perTrial(lc.assemble, n))
	r.set("sim.events_per_trial", "count", ratio(lc.events, int64(n-lc.async.trials)))
	for _, s := range []struct {
		layer string
		c     schemeCounts
	}{{"core", lc.sr}, {"ar", lc.ar}} {
		r.set(s.layer+".ms_per_trial", "ms", perTrial(s.c.stepTime, s.c.trials))
		r.set(s.layer+".rounds_per_trial", "count", ratio(s.c.rounds, int64(s.c.trials)))
		us := 0.0
		if s.c.rounds > 0 {
			us = float64(s.c.stepTime) / float64(time.Microsecond) / float64(s.c.rounds)
		}
		r.set(s.layer+".us_per_round", "us", us)
		r.set(s.layer+".converged_ratio", "ratio", ratio(s.c.converged, s.c.initiate))
		if s.layer == "core" {
			r.set("core.moves_per_trial", "count", ratio(s.c.moves, int64(s.c.trials)))
			r.set("core.messages_per_trial", "count", ratio(s.c.messages, int64(s.c.trials)))
		}
	}
	r.set("async.ms_per_trial", "ms", perTrial(lc.async.runTime, lc.async.trials))
	simS := 0.0
	if lc.async.trials > 0 {
		simS = lc.async.simS / float64(lc.async.trials)
	}
	r.set("async.sim_s_per_trial", "s", simS)
	r.set("async.converged_ratio", "ratio", ratio(lc.async.converged, lc.async.initiate))
	r.set("coverage.finalize_ms_per_trial", "ms", perTrial(lc.finalize, n))
	r.set("coverage.headgraph_ms_per_trial", "ms", perTrial(lc.headgraph, n))
	r.set("metrics.summarize_us_per_trial", "us", 1000*perTrial(lc.summarize, n-lc.async.trials))
}
