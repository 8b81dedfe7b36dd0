package sweepd

import (
	"fmt"
	"os"
	"path/filepath"

	"wsncover/internal/campaign"
	"wsncover/internal/dispatch"
	"wsncover/internal/telemetry"
)

// execute runs one campaign to a manifest put in the store. It returns
// the stored manifest path and the run's result for the ledger (finish
// fills in its name and spec).
// Cancellation (drain) surfaces as context.Canceled; the checkpoint
// left in the campaign's run directory seeds the next submission of the
// same spec.
func (d *Daemon) execute(c *Campaign) (string, campaign.Result, error) {
	runDir, err := d.store.RunDir(c.SpecHash)
	if err != nil {
		return "", campaign.Result{}, err
	}
	run := d.executeInProcess
	if d.opts.FleetSlots > 1 {
		run = d.executeFleet
	}
	path, res, err := run(c, runDir)
	if err == nil {
		// The manifest is in the store: the run directory (checkpoint, a
		// fleet's shard artifacts) is only a drained run's resume state.
		os.RemoveAll(runDir)
	}
	return path, res, err
}

// testTrialHook, when non-nil, observes every completed trial of an
// in-process campaign after its checkpoint lands. Tests block in it to
// hold a campaign mid-run deterministically — trials are far too fast
// for wall-clock racing.
var testTrialHook func(c *Campaign, ran int)

// executeInProcess runs the campaign on the embedded engine — no
// subprocess, the daemon is the worker — through the campaign runner
// cmd/sweep uses, so the stored manifest is byte-identical to what the
// CLI writes for the same submission. A checkpoint whose embedded spec
// does not re-hash to the campaign's (a stale or foreign file) is
// skipped with a warning rather than merged.
func (d *Daemon) executeInProcess(c *Campaign, runDir string) (string, campaign.Result, error) {
	ckPath := filepath.Join(runDir, "checkpoint.json")
	prior, err := campaign.LoadPrior(ckPath, c.Spec)
	if err == nil && prior != nil {
		if got, herr := telemetry.SpecHash(prior.Spec); herr != nil || got != c.SpecHash {
			err = fmt.Errorf("mismatched spec hash %q", got)
		}
	}
	if err != nil {
		d.log.Warn("ignoring checkpoint", "path", ckPath, "err", err)
		prior = nil
	}
	plan := campaign.NewPlan(c.Name, c.Spec, prior)
	if plan.Resumed > 0 {
		d.log.Info("resuming from checkpoint", "path", ckPath, "cells", plan.Resumed)
	}
	tracker := telemetry.NewTracker(telemetry.NewPublisher(c.hub), plan.Executed, plan.GroupOrder, plan.GroupTotal)
	res, err := plan.Run(d.ctx, ckPath, func(group string, ran int) error {
		tracker.TrialDone(group)
		if testTrialHook != nil {
			testTrialHook(c, ran)
		}
		return nil
	})
	tracker.Final()
	if err != nil {
		return "", res, err
	}
	stored, err := d.store.Put(c.SpecHash, res.Manifest)
	return stored, res, err
}

// executeFleet runs the campaign as a dispatch fleet of WorkerBin
// subprocesses, bridging the fleet's progress snapshots onto the
// campaign's hub. Shard artifacts and checkpoints land in the
// campaign's run directory; Resume is always on, so a drained fleet's
// surviving shards seed the next submission.
func (d *Daemon) executeFleet(c *Campaign, runDir string) (string, campaign.Result, error) {
	manifest, _, err := dispatch.Run(d.ctx, c.Spec, dispatch.Options{
		Slots:      d.opts.FleetSlots,
		OutDir:     runDir,
		Name:       c.Name,
		Resume:     true,
		Worker:     []string{d.opts.WorkerBin},
		Logger:     d.log.With("campaign", c.ID),
		OnProgress: dispatch.Publish(telemetry.NewPublisher(c.hub)),
	})
	if err != nil {
		return "", campaign.Result{}, err
	}
	stored, err := d.store.Put(c.SpecHash, manifest)
	return stored, campaign.Result{Manifest: manifest, Ran: manifest.Jobs}, err
}
