package main

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// The self-test runs every workload at tiny size. Run it from this
// directory with `go test ./...`.

type benchFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Work     []struct{ Name string }       `json:"workloads"`
}

func loadBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// sweepBinary builds cmd/sweep once for the fleet workload.
func sweepBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sweep")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sweep")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building cmd/sweep: %v\n%s", err, out)
	}
	return bin
}

func tinyConfig(t *testing.T, name, sweep string, trace bool, corrupt string) config {
	return config{
		name: name, seed: 7, window: 300 * time.Millisecond, trace: trace,
		sweepBin: sweep, work: t.TempDir(), tiny: true, corrupt: corrupt,
	}
}

func TestEveryMetricPrintedWithUnit(t *testing.T) {
	stderr = io.Discard
	b := loadBenchFile(t)
	sweep := sweepBinary(t)
	if len(b.Work) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Work), len(workloads))
	}
	for _, w := range b.Work {
		run, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		for _, trace := range []bool{false, true} {
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			rep, err := run(tinyConfig(t, w.Name, sweep, trace, ""))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if rep.failed != 0 || rep.attempted < 1 {
				t.Errorf("%s trace=%v: %d failed of %d ops", w.Name, trace, rep.failed, rep.attempted)
			}
			if len(rep.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(rep.metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestChecksFire damages the input of one correctness check at a time
// and expects every output that check examined to fail it, each failure
// counted as a failed op. Durability misses are counted apart and are
// not failed ops.
func TestChecksFire(t *testing.T) {
	stderr = io.Discard
	sweep := sweepBinary(t)
	for _, tc := range []struct {
		workload string
		trace    bool
		check    string
	}{
		{"bigfield", false, chkSample},
		{"bigfield", true, chkDecomposed},
		{"bigfield", true, chkInvariants},
		{"storm", false, chkSample},
		{"storm", true, chkDecomposed},
		{"storm", true, chkInvariants},
		{"service", false, chkServed},
		{"service", false, chkHit},
		{"service", false, chkDurable},
		{"service", false, chkLedger},
		{"service", true, chkServed},
		{"service", true, chkHit},
		{"service", true, chkDurable},
		{"service", true, chkLedger},
		{"fleet", false, chkFleet},
		{"fleet", true, chkFleet},
	} {
		rep, err := workloads[tc.workload](tinyConfig(t, tc.workload, sweep, tc.trace, tc.check))
		if err != nil {
			t.Fatalf("%s trace=%v: %v", tc.workload, tc.trace, err)
		}
		n, bad := rep.checked[tc.check], rep.fails[tc.check]
		want := bad
		if tc.check == chkDurable {
			want = 0
		}
		if n == 0 || bad != n || rep.failed != want {
			t.Errorf("%s trace=%v: with its inputs damaged, check %s failed %d of %d outputs (%d failed ops, want %d)",
				tc.workload, tc.trace, tc.check, bad, n, rep.failed, want)
		}
	}
}
