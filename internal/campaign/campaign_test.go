package campaign

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wsncover/internal/experiment"
	"wsncover/internal/sim"
	"wsncover/internal/telemetry"
)

// shardSpec is a 2-cell campaign sharded to replicates [1, 4): 3
// trials per cell, 6 in all.
func shardSpec() sim.CampaignSpec {
	return sim.CampaignSpec{
		Schemes:    []sim.SchemeKind{sim.SR},
		Grids:      []sim.GridSize{{Cols: 8, Rows: 8}},
		Spares:     []int{8, 24},
		Replicates: 5,
		BaseSeed:   3,
		Workers:    1,
		ShardFirst: 1,
		ShardCount: 3,
	}.Normalized()
}

func manifestBytes(t *testing.T, m *experiment.Manifest) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunResumesFromCheckpoint: a run stopped after its first cell
// leaves a checkpoint of exactly that cell; a plan resuming from it
// executes only the other cell, and the result is byte-identical to an
// uninterrupted run, Jobs accounting included.
func TestRunResumesFromCheckpoint(t *testing.T) {
	spec := shardSpec()
	ref, err := NewPlan("c", spec, nil).Run(context.Background(), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Ran != 6 || ref.Manifest.Jobs != 6 || len(ref.Manifest.Points) != 2 {
		t.Fatalf("uninterrupted run: ran %d, %d jobs, %d points; want 6, 6, 2",
			ref.Ran, ref.Manifest.Jobs, len(ref.Manifest.Points))
	}

	ck := filepath.Join(t.TempDir(), "sub", "c.json")
	stop := errors.New("stop")
	_, err = NewPlan("c", spec, nil).Run(context.Background(), ck, func(_ string, ran int) error {
		if ran == 4 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("stopped run = %v, want the hook's error", err)
	}
	prior, err := LoadPrior(ck, spec)
	if err != nil || prior == nil {
		t.Fatalf("LoadPrior(checkpoint) = %v, %v", prior, err)
	}
	if prior.Jobs != 3 || len(prior.Points) != 1 {
		t.Fatalf("checkpoint: %d jobs, %d points; want the one completed cell's 3 jobs", prior.Jobs, len(prior.Points))
	}

	plan := NewPlan("c", spec, prior)
	if plan.Resumed != 1 || plan.Executed != 3 {
		t.Fatalf("resumed plan: %d cells resumed, %d trials to run; want 1, 3", plan.Resumed, plan.Executed)
	}
	res, err := plan.Run(context.Background(), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ran != 3 {
		t.Errorf("resumed run executed %d trials, want 3", res.Ran)
	}
	if got, want := manifestBytes(t, res.Manifest), manifestBytes(t, ref.Manifest); !bytes.Equal(got, want) {
		t.Errorf("resumed manifest differs from the uninterrupted run:\n%s\nvs\n%s", got, want)
	}
}

// TestLoadPrior: a missing file is no prior, an incompatible or
// unreadable one an error, and a prior cell the spec no longer lists is
// dropped as an orphan.
func TestLoadPrior(t *testing.T) {
	dir := t.TempDir()
	spec := shardSpec()
	if m, err := LoadPrior(filepath.Join(dir, "none.json"), spec); m != nil || err != nil {
		t.Errorf("missing prior = %v, %v; want nil, nil", m, err)
	}
	res, err := NewPlan("c", spec, nil).Run(context.Background(), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "c.json")
	if err := res.Manifest.WriteAtomic(path); err != nil {
		t.Fatal(err)
	}
	reseeded := spec
	reseeded.BaseSeed++
	if _, err := LoadPrior(path, reseeded); err == nil || !strings.Contains(err.Error(), "produced with") {
		t.Errorf("LoadPrior under another seed = %v, want an incompatibility error", err)
	}
	narrowed := spec
	narrowed.Spares = []int{24}
	prior, err := LoadPrior(path, narrowed)
	if err != nil {
		t.Fatal(err)
	}
	if plan := NewPlan("c", narrowed, prior); plan.Orphans != 1 || plan.Resumed != 1 || plan.Executed != 0 {
		t.Errorf("narrowed plan: %d orphans, %d resumed, %d to run; want 1, 1, 0",
			plan.Orphans, plan.Resumed, plan.Executed)
	}
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPrior(path, spec); err == nil {
		t.Error("LoadPrior accepted a torn manifest")
	}
}

func TestRecord(t *testing.T) {
	spec := shardSpec()
	res, err := NewPlan("c", spec, nil).Run(context.Background(), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Record("shard", "out/c.json", nil)
	if rec.Status != telemetry.StatusCompleted || rec.Manifest != "out/c.json" ||
		rec.Jobs != 6 || rec.Points != 2 || rec.ShardFirst != 1 || rec.ShardCount != 3 || rec.Workers != 1 {
		t.Errorf("completed record = %+v", rec)
	}
	failed := Result{Name: "c", Spec: spec, Ran: 2}
	for err, want := range map[error]string{
		context.Canceled:   telemetry.StatusAborted,
		errors.New("boom"): telemetry.StatusFailed,
	} {
		rec := failed.Record("run", "ignored", err)
		if rec.Status != want || rec.Jobs != 2 || rec.Manifest != "" || rec.Points != 0 {
			t.Errorf("record of %v = %+v, want status %s with 2 jobs and no manifest", err, rec, want)
		}
	}
}
