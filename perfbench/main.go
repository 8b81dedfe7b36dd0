// Command perfbench is the repository's end-to-end and per-layer
// benchmark. Each run measures one workload for a fixed wall time and
// prints, as its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (BENCHMARK.json
// "end_to_end"); with -trace 1 they are the per-layer ones ("per_layer"),
// taken from spans recorded around calls into each package's public
// functions. perfbench/run.sh builds the program and runs it; see
// perfbench/rationale.json for why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// config is one run's inputs. Everything a workload generates derives
// from seed.
type config struct {
	name     string
	seed     int64
	window   time.Duration // timed window of one end-to-end measurement
	trace    bool
	sweepBin string // prebuilt cmd/sweep, the fleet worker
	work     string // scratch directory, removed at exit
	// tiny shrinks every input so the self-test runs in seconds.
	tiny bool
	// corrupt names a correctness check (chk*) whose every input the
	// run damages before checking it, so the self-test can prove the
	// check fires.
	corrupt string
}

// rng returns the workload's input stream for one purpose; equal seeds
// give equal inputs.
func (c config) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(c.seed), stream))
}

// report is what a workload returns; main turns it into the result line.
type report struct {
	attempted int
	// failed counts outputs that differ from their references; correct
	// is false when any does.
	failed int
	// checked and fails count, per check, the outputs it examined and
	// those that failed it.
	checked, fails map[string]int
	metrics        map[string]metric
}

// The correctness checks; report.check counts each one's outputs.
const (
	chkSample     = "sample"     // sampled trials vs a fresh sim.RunTrial
	chkDecomposed = "decomposed" // traced decomposed trials vs the campaign engine
	chkInvariants = "invariants" // sim.CheckInvariants on traced jobs
	chkServed     = "served"     // served manifests vs the in-process campaign
	chkHit        = "hit"        // cache-hit bytes vs the cold fetch of the spec
	chkDurable    = "durable"    // manifest and ledger record present at first "completed"
	chkLedger     = "ledger"     // manifest and ledger record present once the daemon drained
	chkFleet      = "fleet"      // merged fleet manifests vs the in-process campaign
)

// check records one output's correctness check. A failed check is a
// failed op and makes the run incorrect, except for chkDurable: it
// exposes a known ordering bug of the daemon, which publishes
// "completed" before it appends the ledger record and so loses a race
// a varying few times per run. Its misses are counted, reported as
// sweepd.terminal_not_durable and logged, but are not failed ops;
// chkLedger checks the same records once the daemon has drained.
func (r *report) check(name string, ok bool, what string) {
	if r.checked == nil {
		r.checked, r.fails = make(map[string]int), make(map[string]int)
	}
	r.checked[name]++
	if ok {
		return
	}
	r.fails[name]++
	if name == chkDurable {
		fmt.Fprintln(stderr, "perfbench: durability miss:", what)
		return
	}
	r.failed++
	fmt.Fprintln(stderr, "perfbench: check failed:", what)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) set(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(config) (*report, error){
	"bigfield": runBigfield,
	"storm":    runStorm,
	"service":  runService,
	"fleet":    runFleet,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: bigfield, storm, service, fleet")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 15, "measured wall seconds")
		trace   = flag.Int("trace", 0, "1 = per-layer metrics from a traced run")
		sweep   = flag.String("sweep", "", "prebuilt cmd/sweep binary (fleet worker)")
		work    = flag.String("work", filepath.Join(".bench_build", "work"), "directory for scratch files and traces")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*work, *name+"-"+strconv.FormatInt(*seed, 10)+"-")
	if err != nil {
		fatal(err)
	}
	cfg := config{
		name:     *name,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		sweepBin: *sweep,
		work:     dir,
	}
	rep, err := run(cfg)
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
