package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os/exec"
	"path/filepath"
	"time"

	"wsncover/internal/dispatch"
	"wsncover/internal/experiment"
	"wsncover/internal/sim"
)

// fleetSlots is the fleet size: one worker subprocess per CPU of the
// reference box, each running one trial worker.
const fleetSlots = 2

// fleetSpec is a churn campaign shaped like specs/churn.json: SR and AR
// on 12x12 under three churn waves, two spare counts, 8 replicates.
func fleetSpec(seed int64, tiny bool) sim.CampaignSpec {
	spec := sim.CampaignSpec{
		Schemes:    []sim.SchemeKind{sim.SR, sim.AR},
		Grids:      []sim.GridSize{{Cols: 12, Rows: 12}},
		Spares:     []int{15, 60},
		Workloads:  []sim.WorkloadSpec{{Kind: "churn", Holes: 2, Every: 5, Waves: 3}},
		Replicates: 8,
		BaseSeed:   seed,
		Workers:    1,
	}
	if tiny {
		spec.Grids = []sim.GridSize{{Cols: 8, Rows: 8}}
		spec.Replicates = 4
	}
	return spec
}

// shardWatch follows one campaign's shards through its progress
// snapshots. Snapshots arrive on heartbeats and shard completions, not
// on launches, so a shard's launch is taken as the moment its slot
// became free: the campaign start, or the completion of the slot's
// previous shard.
type shardWatch struct {
	slotFree  map[int]time.Time
	slotOf    map[int]int
	firstBeat map[int]time.Duration
	attempts  map[int]int
	done      map[int]bool
	lastDone  time.Time
}

func newShardWatch(start time.Time) *shardWatch {
	return &shardWatch{
		slotFree:  map[int]time.Time{0: start},
		slotOf:    map[int]int{},
		firstBeat: map[int]time.Duration{},
		attempts:  map[int]int{},
		done:      map[int]bool{},
	}
}

func (w *shardWatch) observe(s dispatch.FleetSnapshot) {
	now := time.Now()
	for _, sh := range s.Shards {
		w.attempts[sh.Shard] = sh.Attempts
		if sh.Slot != 0 {
			w.slotOf[sh.Shard] = sh.Slot
		}
		if _, ok := w.firstBeat[sh.Shard]; !ok && !sh.LastBeat.IsZero() {
			launch, ok := w.slotFree[w.slotOf[sh.Shard]]
			if !ok {
				launch = w.slotFree[0]
			}
			w.firstBeat[sh.Shard] = sh.LastBeat.Sub(launch)
		}
		if sh.State == dispatch.ShardDone && !w.done[sh.Shard] {
			w.done[sh.Shard] = true
			w.slotFree[w.slotOf[sh.Shard]] = now
		}
	}
	if s.Terminal() && w.lastDone.IsZero() {
		w.lastDone = now
	}
}

// fleetCampaign is one dispatched campaign's record.
type fleetCampaign struct {
	spec     sim.CampaignSpec
	name     string
	manifest *experiment.Manifest
	latency  time.Duration
	watch    *shardWatch
	end      time.Time
}

func runFleetWindow(cfg config, rng *rand.Rand, dir string, tr *tracer, window time.Duration) ([]fleetCampaign, usage, error) {
	var out []fleetCampaign
	m := startMeter()
	for deadline := time.Now().Add(window); time.Now().Before(deadline); {
		k := len(out)
		spec := fleetSpec(rng.Int64(), cfg.tiny)
		name := fmt.Sprintf("fleet-%d", k)
		root := tr.begin("dispatch.run", int64(k), -1)
		t0 := time.Now()
		w := newShardWatch(t0)
		man, _, err := dispatch.Run(context.Background(), spec, dispatch.Options{
			Slots:      fleetSlots,
			OutDir:     filepath.Join(dir, name),
			Name:       name,
			Worker:     []string{cfg.sweepBin},
			Stderr:     io.Discard,
			OnProgress: w.observe,
		})
		end := time.Now()
		tr.end(root, 0)
		if err != nil {
			return nil, usage{}, err
		}
		if !w.lastDone.IsZero() {
			tr.record("dispatch.tail", int64(k), root, w.lastDone, end.Sub(w.lastDone), 0)
		}
		out = append(out, fleetCampaign{spec: spec, name: name, manifest: man, latency: end.Sub(t0), watch: w, end: end})
	}
	return out, m.stop(), nil
}

// fleetE2E folds a window's campaigns into an end-to-end measurement.
func fleetE2E(setup []time.Duration, use usage, camps []fleetCampaign) e2e {
	ex := e2e{setup: setup, use: use}
	for _, c := range camps {
		ex.ops += c.manifest.Jobs
		ex.latencies = append(ex.latencies, c.latency)
	}
	return ex
}

// fleetSetupBatch is the number of worker launches in one timed batch.
const fleetSetupBatch = 8

// fleetSetup times the fleet's start: one launch of the worker binary,
// the per-launch cost every shard attempt pays.
func fleetSetup(cfg config) ([]time.Duration, error) {
	return timeSetup(fleetSetupBatch, func() error {
		return exec.Command(cfg.sweepBin, "-list-workloads").Run()
	}, nil)
}

// checkFleet compares every merged manifest with the in-process
// campaign's under the shard merge contract (dispatch.DiffManifests).
func checkFleet(cfg config, dir string, camps []fleetCampaign, rep *report) error {
	for _, c := range camps {
		pts, err := sim.RunCampaign(context.Background(), c.spec, experiment.Options{Workers: refWorkers})
		if err != nil {
			return err
		}
		ref, err := experiment.NewManifest(c.name, c.spec.Normalized(), c.spec.NumJobs(), c.spec.Workers, pts)
		if err != nil {
			return err
		}
		got := c.manifest
		if cfg.corrupt == chkFleet {
			cp := *got
			cp.Points = append([]experiment.Point(nil), got.Points...)
			cp.Points[0].X++
			got = &cp
		}
		a, b := filepath.Join(dir, "check", "fleet"), filepath.Join(dir, "check", "inprocess")
		pa, err := got.Save(a)
		if err != nil {
			return err
		}
		pb, err := ref.Save(b)
		if err != nil {
			return err
		}
		diffs, err := dispatch.DiffManifests(pa, pb, 1e-9)
		if err != nil {
			return err
		}
		rep.check(chkFleet, len(diffs) == 0,
			fmt.Sprintf("fleet manifest %s differs from the in-process campaign: %v", c.name, diffs))
	}
	return nil
}

// runFleet: dispatch.Run with fleetSlots local slots running the
// prebuilt cmd/sweep worker over a churn campaign. An op is one trial.
func runFleet(cfg config) (*report, error) {
	if cfg.sweepBin == "" {
		return nil, errors.New("the fleet workload needs -sweep, the prebuilt cmd/sweep worker")
	}
	rep := &report{}
	rng := cfg.rng(1)
	window := cfg.window
	if cfg.trace {
		window /= 2
	}
	dir := filepath.Join(cfg.work, "untraced")
	setup, err := fleetSetup(cfg)
	if err != nil {
		return nil, err
	}
	camps, use, err := runFleetWindow(cfg, rng, dir, nil, window)
	if err != nil {
		return nil, err
	}
	ex := fleetE2E(setup, use, camps)
	rep.attempted = ex.ops
	if err := checkFleet(cfg, dir, camps, rep); err != nil {
		return nil, err
	}
	if !cfg.trace {
		rep.addE2E(ex)
		return rep, nil
	}

	tr := newTracer()
	tdir := filepath.Join(cfg.work, "traced")
	tsetup, err := fleetSetup(cfg)
	if err != nil {
		return nil, err
	}
	tcamps, tuse, err := runFleetWindow(cfg, rng, tdir, tr, window)
	if err != nil {
		return nil, err
	}
	tex := fleetE2E(tsetup, tuse, tcamps)
	var firstBeat, tail []time.Duration
	shards, launches := 0, 0
	for _, c := range tcamps {
		for sh, n := range c.watch.attempts {
			shards++
			launches += n
			if fb, ok := c.watch.firstBeat[sh]; ok {
				firstBeat = append(firstBeat, fb)
			}
		}
		if !c.watch.lastDone.IsZero() {
			tail = append(tail, c.end.Sub(c.watch.lastDone))
		}
	}
	rep.attempted += tex.ops
	if err := checkFleet(cfg, tdir, tcamps, rep); err != nil {
		return nil, err
	}
	setLayerDefaults(rep)
	rep.set("dispatch.attempts_per_shard", "count", float64(launches)/float64(shards))
	rep.set("dispatch.launches_per_campaign", "count", float64(launches)/float64(len(tcamps)))
	rep.set("dispatch.first_beat_ms", "ms", ms(quantile(firstBeat, 0.5)))
	rep.set("dispatch.tail_ms", "ms", ms(quantile(tail, 0.5)))
	rep.set("dispatch.driver_cpu_ms_per_op", "ms", ms(tuse.selfCPU)/float64(tex.ops))
	rep.set("dispatch.worker_cpu_ms_per_op", "ms", ms(tuse.childCPU)/float64(tex.ops))
	rep.addRuntime(tuse, tex.ops)
	rep.addOverhead(ex, tex)
	tr.layerShares(rep, layers)
	if path, err := tr.write(cfg.traceDir(), fmt.Sprintf("seed-%d.ndjson", cfg.seed)); err == nil {
		fmt.Fprintln(stderr, "perfbench: spans written to", path)
	}
	return rep, nil
}
