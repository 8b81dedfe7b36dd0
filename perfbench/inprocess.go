package main

import (
	"math/rand/v2"

	"wsncover/internal/sim"
)

// runBigfield: one SR campaign on a 1024x1024 grid per request — a
// single burst of holes over a large field, so per-trial cost follows
// grid area (deployment, Reset, the end-of-trial coverage scans), not
// damage.
func runBigfield(cfg config) (*report, error) {
	g := sim.GridSize{Cols: 1024, Rows: 1024}
	spares, holes := 1200, 64
	if cfg.tiny {
		g, spares, holes = sim.GridSize{Cols: 48, Rows: 48}, 60, 4
	}
	return runTrialWorkload(cfg, trialWorkload{
		geometries: []sim.GridSize{g},
		checks:     2,
		setupBatch: 1,
		request: func(rng *rand.Rand) []sim.CampaignSpec {
			return []sim.CampaignSpec{{
				Schemes:    []sim.SchemeKind{sim.SR},
				Grids:      []sim.GridSize{g},
				Spares:     []int{spares},
				Holes:      []int{holes},
				Replicates: 4,
				BaseSeed:   rng.Int64(),
			}}
		},
	})
}

// runStorm: sustained churn plus a jammed disc on a small grid, where
// the controllers' rounds are the whole cost. The low spare count runs
// dry (standing holes pile up); the high one keeps cascades succeeding.
// SR and AR run on the sync runner; a smaller SR campaign runs on the
// async runner, which Validate keeps out of the AR campaign.
func runStorm(cfg config) (*report, error) {
	g := sim.GridSize{Cols: 48, Rows: 48}
	ag := sim.GridSize{Cols: 16, Rows: 16}
	spares := []int{20, 400}
	reps, asyncReps := 2, 1
	if cfg.tiny {
		g, ag, spares, reps = sim.GridSize{Cols: 16, Rows: 16}, sim.GridSize{Cols: 8, Rows: 8}, []int{4, 40}, 1
	}
	storm := sim.WorkloadSpec{Kind: "overlay", Children: []sim.WorkloadSpec{
		{Kind: "churn", Holes: 6, Every: 4, Waves: 12},
		{Kind: "jam", Radius: 14},
	}}
	return runTrialWorkload(cfg, trialWorkload{
		geometries: []sim.GridSize{g, ag},
		checks:     6,
		setupBatch: 128,
		request: func(rng *rand.Rand) []sim.CampaignSpec {
			return []sim.CampaignSpec{{
				Schemes:    []sim.SchemeKind{sim.SR, sim.AR},
				Grids:      []sim.GridSize{g},
				Spares:     spares,
				Workloads:  []sim.WorkloadSpec{storm},
				Replicates: reps,
				BaseSeed:   rng.Int64(),
			}, {
				Schemes:    []sim.SchemeKind{sim.SR},
				Grids:      []sim.GridSize{ag},
				Spares:     spares[:1],
				Workloads:  []sim.WorkloadSpec{{Kind: "churn", Holes: 2, Every: 4, Waves: 4}},
				Runners:    []sim.RunnerKind{sim.RunAsync},
				Replicates: asyncReps,
				BaseSeed:   rng.Int64(),
			}}
		},
	})
}
