package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"wsncover/internal/dispatch"
	"wsncover/internal/experiment"
	"wsncover/internal/sim"
)

// TestMain doubles as the dispatch worker entry point: the dispatch
// driver re-executes the current binary, which under `go test` is the
// test binary. With WSNSWEEP_WORKER=1 set, this process behaves exactly
// like cmd/sweep, so the dispatch tests exercise the real worker code
// path without building a separate binary.
func TestMain(m *testing.M) {
	if os.Getenv("WSNSWEEP_WORKER") == "1" {
		if err := run(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// captureProgress redirects the -progress=json stream for one test.
func captureProgress(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	old := progressOut
	progressOut = &buf
	t.Cleanup(func() { progressOut = old })
	return &buf
}

// parseEvents decodes every protocol line in the captured stream.
func parseEvents(t *testing.T, raw []byte) []experiment.Progress {
	t.Helper()
	var events []experiment.Progress
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if ev, ok := experiment.ParseProgressLine(line); ok {
			events = append(events, ev)
		}
	}
	return events
}

// TestShardProgressJSONTotals is the shard-meter regression test: under
// -shard i/n every progress total — the denominator the meter and any
// supervisor computes ETA from — must be the shard's own trial count,
// never the full campaign's replicate range.
func TestShardProgressJSONTotals(t *testing.T) {
	buf := captureProgress(t)
	dir := t.TempDir()
	// Full campaign: 1 scheme x 2 spares x 4 replicates = 8 trials.
	// Shard 2/2 owns replicates [2, 4): 4 trials.
	err := run([]string{
		"-schemes", "SR", "-grids", "8x8", "-spares", "8,24",
		"-replicates", "4", "-seed", "5", "-shard", "2/2",
		"-progress", "json", "-out", dir, "-name", "s", "-metrics", "",
	})
	if err != nil {
		t.Fatal(err)
	}
	events := parseEvents(t, buf.Bytes())
	if len(events) < 2 {
		t.Fatalf("got %d events, want at least the initial and final ones:\n%s", len(events), buf.String())
	}
	if first := events[0]; first.Done != 0 || first.Total != 4 {
		t.Errorf("initial event %+v, want 0/4 (the shard's own count)", first)
	}
	last := events[len(events)-1]
	if last.Done != 4 || last.Total != 4 {
		t.Errorf("final event %+v, want 4/4", last)
	}
	for _, ev := range events {
		if ev.Total == 8 {
			t.Errorf("event %+v leaked the full campaign total 8", ev)
		}
	}
}

// TestShardResumeJobsAccounting pins the Jobs bookkeeping fix: a shard
// manifest grown by -resume must count the trials its points represent
// (prior retained cells included), exactly like the same shard run in
// one go — otherwise -merge under-reports the campaign's job count.
func TestShardResumeJobsAccounting(t *testing.T) {
	dir := t.TempDir()
	base := []string{
		"-schemes", "SR", "-grids", "8x8", "-replicates", "4",
		"-seed", "5", "-shard", "2/2", "-out", dir, "-name", "sh",
		"-metrics", "", "-quiet",
	}
	if err := run(append([]string{"-spares", "8"}, base...)); err != nil {
		t.Fatal(err)
	}
	if err := run(append([]string{"-spares", "8,24", "-resume"}, base...)); err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(filepath.Join(dir, "sh.json"))
	if err != nil {
		t.Fatal(err)
	}

	refDir := t.TempDir()
	ref := []string{
		"-schemes", "SR", "-grids", "8x8", "-replicates", "4",
		"-seed", "5", "-shard", "2/2", "-out", refDir, "-name", "sh",
		"-metrics", "", "-quiet", "-spares", "8,24",
	}
	if err := run(ref); err != nil {
		t.Fatal(err)
	}
	direct, err := os.ReadFile(filepath.Join(refDir, "sh.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, direct) {
		t.Errorf("resumed shard manifest differs from the direct run:\n%s\nvs\n%s", resumed, direct)
	}
	var m experiment.Manifest
	if err := json.Unmarshal(resumed, &m); err != nil {
		t.Fatal(err)
	}
	if m.Jobs != 4 {
		t.Errorf("resumed shard manifest jobs = %d, want 4 (2 prior + 2 new)", m.Jobs)
	}
}

// TestCheckpointResumeAfterKill is the worker failure-path satellite: a
// shard worker killed mid-run leaves a checkpoint manifest of its
// completed cells, a -resume rerun finishes only the missing cells, and
// the final manifest is byte-identical to an uninterrupted run.
func TestCheckpointResumeAfterKill(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-schemes", "SR", "-grids", "8x8", "-spares", "8,24",
		"-replicates", "3", "-seed", "9", "-out", dir, "-name", "ck",
		"-metrics", "", "-checkpoint", "-quiet",
	}
	// Re-exec this test binary as a worker that dies (exit 7) right
	// after its third trial — the moment the first cell completes and
	// checkpoints.
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "WSNSWEEP_WORKER=1",
		"WSNSWEEP_CHAOS=crash", "WSNSWEEP_CHAOS_AFTER=3", "WSNSWEEP_CHAOS_DIR=")
	out, err := cmd.CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 7 {
		t.Fatalf("worker = %v (output %q), want exit code 7", err, out)
	}

	// The partial manifest holds exactly the completed cell.
	partial, err := os.ReadFile(filepath.Join(dir, "ck.json"))
	if err != nil {
		t.Fatalf("no checkpoint manifest after the kill: %v", err)
	}
	var pm experiment.Manifest
	if err := json.Unmarshal(partial, &pm); err != nil {
		t.Fatal(err)
	}
	if len(pm.Points) != 1 || pm.Points[0].X != 8 || pm.Jobs != 3 {
		t.Fatalf("checkpoint = %d points (X=%g) %d jobs, want the completed N=8 cell and 3 jobs",
			len(pm.Points), pm.Points[0].X, pm.Jobs)
	}

	// Resume in-process and compare with an uninterrupted run.
	if err := run(append(append([]string{}, args...), "-resume")); err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(filepath.Join(dir, "ck.json"))
	if err != nil {
		t.Fatal(err)
	}
	refDir := t.TempDir()
	refArgs := []string{
		"-schemes", "SR", "-grids", "8x8", "-spares", "8,24",
		"-replicates", "3", "-seed", "9", "-out", refDir, "-name", "ck",
		"-metrics", "", "-quiet",
	}
	if err := run(refArgs); err != nil {
		t.Fatal(err)
	}
	ref, err := os.ReadFile(filepath.Join(refDir, "ck.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, ref) {
		t.Errorf("resumed-after-kill manifest differs from uninterrupted run:\n%s\nvs\n%s", resumed, ref)
	}
}

// assertManifestsEquivalent compares a sharded-and-merged campaign
// manifest against an unsharded reference under the merge contract:
// count/min/max and every structural field byte-exact, mean/stddev/CI95
// to within floating-point reassociation (the pooled-variance merge
// reassociates sums), the median excluded (it is an estimate marked
// median_approx), and execution metadata (worker counts) ignored.
func assertManifestsEquivalent(t *testing.T, gotPath, wantPath string) {
	t.Helper()
	load := func(path string) (experiment.Manifest, sim.CampaignSpec) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var m experiment.Manifest
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		var spec sim.CampaignSpec
		if err := json.Unmarshal(m.Spec, &spec); err != nil {
			t.Fatal(err)
		}
		spec.Workers, spec.FreshBuild = 0, false
		return m, spec
	}
	got, gotSpec := load(gotPath)
	want, wantSpec := load(wantPath)
	gs, _ := json.Marshal(gotSpec)
	ws, _ := json.Marshal(wantSpec)
	if !bytes.Equal(gs, ws) {
		t.Errorf("specs differ:\n%s\nvs\n%s", gs, ws)
	}
	if got.Jobs != want.Jobs || got.Name != want.Name || len(got.Points) != len(want.Points) {
		t.Fatalf("manifest shape (%s, %d jobs, %d points) vs (%s, %d jobs, %d points)",
			got.Name, got.Jobs, len(got.Points), want.Name, want.Jobs, len(want.Points))
	}
	close := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }
	for i, wp := range want.Points {
		gp := got.Points[i]
		if gp.Group != wp.Group || gp.X != wp.X || len(gp.Metrics) != len(wp.Metrics) {
			t.Fatalf("point %d: (%s, %g, %d metrics) vs (%s, %g, %d metrics)",
				i, gp.Group, gp.X, len(gp.Metrics), wp.Group, wp.X, len(wp.Metrics))
		}
		for name, wd := range wp.Metrics {
			gd := gp.Metrics[name]
			if gd.N != wd.N || gd.Min != wd.Min || gd.Max != wd.Max {
				t.Errorf("%s/%s exact fields: (%d,%g,%g) vs (%d,%g,%g)",
					wp.Group, name, gd.N, gd.Min, gd.Max, wd.N, wd.Min, wd.Max)
			}
			if !close(gd.Mean, wd.Mean) || !close(gd.StdDev, wd.StdDev) || !close(gd.CI95, wd.CI95) {
				t.Errorf("%s/%s moments: (%g,%g,%g) vs (%g,%g,%g)",
					wp.Group, name, gd.Mean, gd.StdDev, gd.CI95, wd.Mean, wd.StdDev, wd.CI95)
			}
		}
	}
}

// TestDispatchMatchesUnsharded is the acceptance criterion: -dispatch n
// runs n supervised shard subprocesses and writes a final merged
// manifest byte-identical — modulo the now-honest median field and
// worker-count metadata — to the same campaign run unsharded.
func TestDispatchMatchesUnsharded(t *testing.T) {
	t.Setenv("WSNSWEEP_WORKER", "1") // shard subprocesses re-enter run()
	dir := t.TempDir()
	if err := run([]string{
		"-dispatch", "2", "-schemes", "SR,AR", "-grids", "8x8",
		"-spares", "8,24", "-replicates", "4", "-seed", "21",
		"-out", dir, "-name", "camp", "-metrics", "moves", "-quiet",
	}); err != nil {
		t.Fatal(err)
	}
	// The fleet leaves shard artifacts plus the merged campaign. With 2
	// slots the queue defaults to 4 replicate blocks (2 per slot).
	for _, f := range []string{
		"camp.json", "camp-b1.json", "camp-b2.json", "camp-b3.json", "camp-b4.json",
		"camp-b1.spec.json", "camp-b4.spec.json", "camp-moves.csv",
	} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing fleet artifact %s: %v", f, err)
		}
	}

	refDir := t.TempDir()
	if err := run([]string{
		"-schemes", "SR,AR", "-grids", "8x8", "-spares", "8,24",
		"-replicates", "4", "-seed", "21", "-workers", "4",
		"-out", refDir, "-name", "camp", "-metrics", "moves", "-quiet",
	}); err != nil {
		t.Fatal(err)
	}
	assertManifestsEquivalent(t, filepath.Join(dir, "camp.json"), filepath.Join(refDir, "camp.json"))
}

// TestDispatchRetriesDeadWorkerAndResumes: the worker slot 1 launches
// first is killed mid-run (after checkpointing one completed cell); the
// driver must retry its shard with -resume and the merged result must
// still match the unsharded campaign.
func TestDispatchRetriesDeadWorkerAndResumes(t *testing.T) {
	dir := t.TempDir()
	died := filepath.Join(dir, "died")
	script := filepath.Join(dir, "flaky.sh")
	if err := os.WriteFile(script, []byte(`#!/bin/sh
s=$1; shift
if [ "$s" = "1" ] && [ ! -e "`+died+`" ]; then
  touch "`+died+`"
  export WSNSWEEP_CHAOS=crash WSNSWEEP_CHAOS_AFTER=3 WSNSWEEP_CHAOS_DIR=
fi
exec "$@"
`), 0o755); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	attempts := 0
	spec := sim.CampaignSpec{
		Schemes:    []sim.SchemeKind{sim.SR},
		Grids:      []sim.GridSize{{Cols: 8, Rows: 8}},
		Spares:     []int{8, 24},
		Replicates: 4,
		BaseSeed:   21,
	}
	manifest, _, err := dispatch.Run(context.Background(), spec, dispatch.Options{
		Slots:  2,
		Blocks: 2,
		Worker: []string{"/bin/sh", script, "{slot}", os.Args[0]},
		OutDir: dir,
		Name:   "camp",
		Env:    []string{"WSNSWEEP_WORKER=1"},
		Stderr: io.Discard,
		OnProgress: func(s dispatch.FleetSnapshot) {
			mu.Lock()
			defer mu.Unlock()
			for _, sh := range s.Shards {
				if sh.Attempts > attempts {
					attempts = sh.Attempts
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(died); err != nil {
		t.Fatal("the flaky worker never died; the retry path was not exercised")
	}
	mu.Lock()
	got := attempts
	mu.Unlock()
	if got != 2 {
		t.Errorf("dead worker's shard attempts = %d, want 2 (die once, resume once)", got)
	}
	if _, err := manifest.Save(dir); err != nil {
		t.Fatal(err)
	}

	refDir := t.TempDir()
	if err := run([]string{
		"-schemes", "SR", "-grids", "8x8", "-spares", "8,24",
		"-replicates", "4", "-seed", "21",
		"-out", refDir, "-name", "camp", "-metrics", "", "-quiet",
	}); err != nil {
		t.Fatal(err)
	}
	assertManifestsEquivalent(t, filepath.Join(dir, "camp.json"), filepath.Join(refDir, "camp.json"))
	// Every shard's manifest accounts for all the trials it represents —
	// the retried one's checkpointed prefix included.
	for _, name := range []string{"camp-b1.json", "camp-b2.json"} {
		var sh experiment.Manifest
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &sh); err != nil {
			t.Fatal(err)
		}
		if sh.Jobs != 4 {
			t.Errorf("%s jobs = %d, want 4", name, sh.Jobs)
		}
	}
}

// TestDispatchFlagConflicts: modes that cannot compose must say so.
func TestDispatchFlagConflicts(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-dispatch", "2", "-shard", "1/2"}, "-dispatch splits"},
		{[]string{"-dispatch", "2", "-checkpoint"}, "-checkpoint belongs to workers"},
		{[]string{"-exec", "ssh box --"}, "-exec only applies"},
		{[]string{"-lease-timeout", "30s"}, "only apply to dispatch mode"},
		{[]string{"-max-retries", "5"}, "only apply to dispatch mode"},
		{[]string{"-fleet", "inv.txt", "-exec", "ssh box --"}, "drop -exec"},
		{[]string{"-progress", "sometimes"}, "unknown -progress mode"},
		{[]string{"-pprof"}, "requires -dash"},
	}
	for _, c := range cases {
		err := run(append(c.args, "-schemes", "SR", "-grids", "8x8", "-spares", "8",
			"-replicates", "4", "-out", dir, "-quiet"))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v) = %v, want error containing %q", c.args, err, c.want)
		}
	}
}
