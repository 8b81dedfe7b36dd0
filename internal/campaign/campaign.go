// Package campaign is the one library runner from a campaign spec to
// its manifest. cmd/sweep (directly and as a dispatch worker) and the
// sweepd daemon's in-process path all run campaigns through it, so a
// resumed, checkpointed, or cached campaign is built by the same code
// wherever it runs:
//
//   - NewPlan fixes what a run executes: every trial of the spec except
//     the cells a prior manifest (LoadPrior) already completed, with the
//     per-group totals progress displays need up front.
//   - Plan.Run streams the trials into online accumulators, rewrites an
//     atomic per-cell checkpoint when asked, hands every trial to the
//     caller's one ordered hook, and merges the prior and fresh points
//     into the final manifest.
//   - Result.Record builds the run's ledger record.
//
// Policy stays with the callers: the CLI fails on an incompatible prior
// manifest, the daemon skips a stale checkpoint with a warning.
package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"wsncover/internal/experiment"
	"wsncover/internal/sim"
	"wsncover/internal/telemetry"
)

// cell identifies one aggregated campaign cell, a manifest point's
// (group, X).
type cell struct {
	group string
	x     float64
}

func jobCell(j sim.TrialJob) cell { return cell{j.Group(), float64(j.Spares)} }

// LoadPrior reads the manifest at path as the prior state of a run of
// spec. A missing file is no prior: (nil, nil). A manifest produced
// under different trial physics or seeding is an error (see
// compatible); so is an unreadable one.
func LoadPrior(path string, spec sim.CampaignSpec) (*experiment.Manifest, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var prior experiment.Manifest
	if err := json.Unmarshal(data, &prior); err != nil {
		return nil, err
	}
	if err := compatible(prior.Spec, spec); err != nil {
		return nil, err
	}
	return &prior, nil
}

// compatible rejects a prior manifest produced under different trial
// physics or seeding: dimension lists may differ freely (extending a
// campaign is the point of resuming, and the dimensions are encoded in
// each point's group/X identity), but the seed, replicate count, shard
// range, and pass-through trial parameters must match. They change
// results without changing any (group, N) label, so a merge would
// silently mix incomparable points and break the paired-seed
// methodology.
func compatible(priorSpec json.RawMessage, spec sim.CampaignSpec) error {
	if len(priorSpec) == 0 {
		return nil
	}
	var prev sim.CampaignSpec
	if err := json.Unmarshal(priorSpec, &prev); err != nil {
		return fmt.Errorf("unreadable spec in manifest: %w", err)
	}
	type pinned struct {
		seed            int64
		replicates      int
		shardFirst      int
		shardCount      int
		commRange       float64
		jamRadius       float64
		adjacentHolesOK bool
		arInitProb      float64
		arMaxHops       int
	}
	pin := func(s sim.CampaignSpec) pinned {
		s = s.Normalized()
		// Resolve trial-level defaults an explicit spec may spell out,
		// so "comm_range: 10" and an omitted comm_range compare equal.
		if s.CommRange == 0 {
			s.CommRange = sim.PaperCommRange
		}
		return pinned{
			seed:            s.BaseSeed,
			replicates:      s.Replicates,
			shardFirst:      s.ShardFirst,
			shardCount:      s.ShardCount,
			commRange:       s.CommRange,
			jamRadius:       s.JamRadius,
			adjacentHolesOK: s.AdjacentHolesOK,
			arInitProb:      s.ARInitProb,
			arMaxHops:       s.ARMaxHops,
		}
	}
	if a, b := pin(prev), pin(spec); a != b {
		return fmt.Errorf("produced with %+v, current campaign has %+v; "+
			"rerun with matching parameters or a fresh -name", a, b)
	}
	return nil
}

// Plan is one run of a campaign: the spec's trials minus the cells a
// prior manifest already completed.
type Plan struct {
	Name string
	Spec sim.CampaignSpec
	// Executed is the number of trials the run executes, after the shard
	// and resume filters; GroupOrder (job order) and GroupTotal break it
	// down by group. Progress displays size themselves from these, so
	// their totals always match the delivered stream.
	Executed   int
	GroupOrder []string
	GroupTotal map[string]int
	// Resumed counts the prior cells the run skips and carries over;
	// Orphans the prior cells dropped because the spec no longer lists
	// their dimension values (the manifest stays consistent with its
	// recorded spec).
	Resumed, Orphans int

	prior     []experiment.Point
	priorJobs int
	done      map[cell]bool
	cellTotal map[cell]int
}

// NewPlan plans a run of spec (normalized and validated) under name,
// resuming from prior when it is non-nil.
func NewPlan(name string, spec sim.CampaignSpec, prior *experiment.Manifest) *Plan {
	p := &Plan{
		Name:       name,
		Spec:       spec,
		GroupTotal: make(map[string]int),
		cellTotal:  make(map[cell]int),
	}
	// cellTotal is every cell's trial count under the shard range alone:
	// it tells a completed cell from a partial one, and credits a
	// resumed-over cell's trials to the Jobs accounting.
	spec.ExecutedJobs(nil, func(j sim.TrialJob) { p.cellTotal[jobCell(j)]++ })
	if prior != nil {
		p.done = make(map[cell]bool)
		for _, pt := range prior.Points {
			k := cell{pt.Group, pt.X}
			if _, ok := p.cellTotal[k]; !ok {
				p.Orphans++
				continue
			}
			p.prior = append(p.prior, pt)
			p.done[k] = true
			p.priorJobs += p.cellTotal[k]
		}
		p.Resumed = len(p.done)
	}
	spec.ExecutedJobs(p.keep(), func(j sim.TrialJob) {
		p.Executed++
		g := j.Group()
		if _, ok := p.GroupTotal[g]; !ok {
			p.GroupOrder = append(p.GroupOrder, g)
		}
		p.GroupTotal[g]++
	})
	return p
}

// keep is the resume filter: nil (every job) when nothing is resumed.
func (p *Plan) keep() func(sim.TrialJob) bool {
	if len(p.done) == 0 {
		return nil
	}
	return func(j sim.TrialJob) bool { return !p.done[jobCell(j)] }
}

// Result is how one run ended: what its ledger record reports.
type Result struct {
	Name string
	Spec sim.CampaignSpec
	// Manifest is the completed campaign manifest; nil when the run
	// failed or was aborted.
	Manifest *experiment.Manifest
	// Ran is the number of trials this run executed — a resumed run is
	// not credited with the cells it skipped.
	Ran  int
	Wall time.Duration
}

// Run executes the plan. When checkpoint is non-empty, the partial
// manifest of every completed cell is atomically rewritten there each
// time a cell completes, so a killed run leaves a valid prior for the
// next LoadPrior. onTrial (nil-safe) sees every finished trial in job
// order — its group and the count run so far — after that trial's
// checkpoint is on disk; an error from it stops the run.
func (p *Plan) Run(ctx context.Context, checkpoint string, onTrial func(group string, ran int) error) (Result, error) {
	res := Result{Name: p.Name, Spec: p.Spec}
	// Trials stream into online per-(group, N) accumulators: campaign
	// memory is O(groups), not O(trials).
	acc := experiment.NewAccumulator()
	var ck *checkpointer
	if checkpoint != "" {
		if err := os.MkdirAll(filepath.Dir(checkpoint), 0o755); err != nil {
			return res, err
		}
		ck = &checkpointer{
			path:      checkpoint,
			plan:      p,
			acc:       acc,
			cellDone:  make(map[cell]int, len(p.cellTotal)),
			completed: make(map[cell]bool, len(p.cellTotal)),
		}
	}
	start := time.Now()
	err := sim.RunCampaignSubset(ctx, p.Spec, experiment.Options{Workers: p.Spec.Workers}, p.keep(),
		func(j sim.TrialJob, s experiment.Sample) error {
			acc.Add(s)
			res.Ran++
			group := j.Group()
			if ck != nil {
				if err := ck.trialDone(cell{group, float64(j.Spares)}); err != nil {
					return err
				}
			}
			if onTrial != nil {
				return onTrial(group, res.Ran)
			}
			return nil
		})
	res.Wall = time.Since(start)
	if err != nil {
		return res, err
	}
	res.Manifest, err = p.manifest(acc.Points(), res.Ran)
	return res, err
}

// manifest merges the prior points with fresh ones into the run's
// manifest. A shard manifest records the trials it represents — the
// ones this run executed plus the ones the prior carried, never the
// full campaign's count; an unsharded one always the whole campaign.
func (p *Plan) manifest(fresh []experiment.Point, ran int) (*experiment.Manifest, error) {
	jobs := p.Spec.NumJobs()
	if p.Spec.ShardCount > 0 {
		jobs = p.priorJobs + ran
	}
	return experiment.NewManifest(p.Name, p.Spec, jobs, p.Spec.Workers, mergePoints(p.prior, fresh))
}

// mergePoints combines the retained prior points with the freshly
// computed ones in the canonical (group, X) order, so a resumed
// manifest is indistinguishable from a single-run one. The resume
// filter keeps the two sets disjoint.
func mergePoints(prior, fresh []experiment.Point) []experiment.Point {
	if len(prior) == 0 {
		return fresh
	}
	merged := make([]experiment.Point, 0, len(prior)+len(fresh))
	merged = append(merged, prior...)
	merged = append(merged, fresh...)
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Group != merged[j].Group {
			return merged[i].Group < merged[j].Group
		}
		return merged[i].X < merged[j].X
	})
	return merged
}

// checkpointer rewrites the partial manifest after every completed
// cell. Only fully completed cells are written: a resume skips whole
// cells, so a partial cell's trials would be rerun anyway.
type checkpointer struct {
	path      string
	plan      *Plan
	acc       *experiment.Accumulator
	cellDone  map[cell]int
	completed map[cell]bool
	doneJobs  int
}

func (c *checkpointer) trialDone(k cell) error {
	c.cellDone[k]++
	total := c.plan.cellTotal[k]
	if c.cellDone[k] < total {
		return nil
	}
	c.completed[k] = true
	c.doneJobs += total
	pts := make([]experiment.Point, 0, len(c.completed))
	for _, pt := range c.acc.Points() {
		if c.completed[cell{pt.Group, pt.X}] {
			pts = append(pts, pt)
		}
	}
	// The checkpoint's Jobs counts exactly the trials its points hold,
	// sharded or not.
	p := c.plan
	m, err := experiment.NewManifest(p.Name, p.Spec, p.priorJobs+c.doneJobs, p.Spec.Workers, mergePoints(p.prior, pts))
	if err != nil {
		return err
	}
	// WriteAtomic uses a uniquely named temp file, so two attempts at the
	// same shard (a straggler and its speculative duplicate sharing the
	// out directory) never clobber each other's in-flight checkpoint.
	return m.WriteAtomic(c.path)
}

// Status classifies how a run ended for the ledger: nil is completed, a
// context cancellation (a drain, a second Ctrl-C racing the first) is
// an abort, anything else a failure.
func Status(err error) string {
	switch {
	case err == nil:
		return telemetry.StatusCompleted
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return telemetry.StatusAborted
	}
	return telemetry.StatusFailed
}

// Record builds the run's ledger record under mode ("run", "shard",
// "dispatch", "sweepd"); path is where a completed manifest was
// written and err how the run ended. A completed record mirrors the
// manifest's accounting; the rate always credits only the trials this
// run executed. Callers add what only they know: the spec hash, CPU
// time, group timings, fleet retries.
func (r Result) Record(mode, path string, err error) telemetry.Record {
	rec := telemetry.Record{
		Name:       r.Name,
		Mode:       mode,
		Status:     Status(err),
		Jobs:       r.Ran,
		Workers:    r.Spec.Workers,
		ShardFirst: r.Spec.ShardFirst,
		ShardCount: r.Spec.ShardCount,
		WallS:      r.Wall.Seconds(),
	}
	if err == nil && r.Manifest != nil {
		rec.Manifest = path
		rec.Jobs = r.Manifest.Jobs
		rec.Points = len(r.Manifest.Points)
	}
	if r.Wall > 0 && r.Ran > 0 {
		rec.TrialsPerS = float64(r.Ran) / r.Wall.Seconds()
	}
	return rec
}
