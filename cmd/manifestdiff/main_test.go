package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wsncover/internal/experiment"
	"wsncover/internal/sim"
	"wsncover/internal/stats"
)

// writeManifest saves a one-point manifest with the given moves mean
// (and workers, execution metadata the diff ignores) into dir.
func writeManifest(t *testing.T, dir string, mean float64, workers int) string {
	t.Helper()
	spec := sim.CampaignSpec{
		Schemes: []sim.SchemeKind{sim.SR}, Grids: []sim.GridSize{{Cols: 8, Rows: 8}},
		Spares: []int{8}, Replicates: 4, BaseSeed: 1, Workers: workers,
	}.Normalized()
	pts := []experiment.Point{{
		Group: "SR 8x8", X: 8,
		Metrics: map[string]stats.Description{
			"moves": {N: 4, Mean: mean, Min: 1, Max: 9, Median: 5},
		},
	}}
	m, err := experiment.NewManifest("camp", spec, 4, workers, pts)
	if err != nil {
		t.Fatal(err)
	}
	path, err := m.Save(dir)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunExitStatus(t *testing.T) {
	a := writeManifest(t, t.TempDir(), 5, 0)
	same := writeManifest(t, t.TempDir(), 5, 8)
	perturbed := writeManifest(t, t.TempDir(), 5.001, 0)
	torn := filepath.Join(t.TempDir(), "torn.json")
	if err := os.WriteFile(torn, []byte(`{"name":`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want int
		out  string // substring of stdout, or of stderr for status 2
	}{
		{"equivalent", []string{a, same}, 0, "are equivalent"},
		{"perturbed mean", []string{a, perturbed}, 1, "1 difference(s)"},
		{"within tolerance", []string{"-tol", "0.01", a, perturbed}, 0, "are equivalent"},
		{"missing file", []string{a, filepath.Join(t.TempDir(), "none.json")}, 2, "manifestdiff:"},
		{"unreadable file", []string{torn, a}, 2, "manifestdiff:"},
		{"one argument", []string{a}, 2, "usage:"},
		{"bad flag", []string{"-nope", a, same}, 2, "-nope"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := run(tc.args, &stdout, &stderr)
			if got != tc.want {
				t.Fatalf("exit %d, want %d (stdout %q, stderr %q)", got, tc.want, stdout.String(), stderr.String())
			}
			out := stdout.String()
			if tc.want == 2 {
				out = stderr.String()
			}
			if !strings.Contains(out, tc.out) {
				t.Errorf("output %q lacks %q", out, tc.out)
			}
		})
	}
}
