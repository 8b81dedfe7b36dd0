// Command sweep runs a multi-dimensional Monte-Carlo campaign on the
// parallel experiment engine: the cross product of control schemes, grid
// sizes, spare counts, hole counts, workloads, and runners, replicated
// and aggregated into mean/CI95 summaries. It writes a JSON manifest
// plus one CSV/gnuplot table per exported metric.
//
// Usage:
//
//	sweep [-schemes SR,AR] [-grids 16x16] [-spares 10,55,200]
//	      [-holes 1] [-workloads holes,churn | -failures holes,jam]
//	      [-runners sync,async] [-replicates 20] [-seed s]
//	      [-workers w] [-metrics moves,success_rate|all] [-out dir]
//	      [-name sweep] [-resume] [-shard i/n] [-checkpoint]
//	      [-progress meter|json|none] [-ascii] [-quiet]
//	      [-dash addr [-pprof] [-dash-linger d]] [-ledger path|none]
//	      [-if-cached store-dir]
//	sweep -spec campaign.json [-out dir] [-name sweep] ...
//	sweep -merge shard1.json shard2.json ... [-out dir] [-name merged]
//	sweep -dispatch n [-exec "ssh host{slot} --"] [-lease-timeout d]
//	      [-max-retries r] [campaign flags ...]
//	sweep -fleet inventory.txt [-lease-timeout d] [-max-retries r] ...
//
// A spec file is the JSON form of sim.CampaignSpec and replaces the
// dimension flags; workload parameters ({"kind": "churn", "every": 5})
// are available only there — the -workloads flag names bare kinds.
// Results are bit-identical for any -workers value.
//
// -resume merges into an existing manifest: every (group, N) cell
// already present is skipped, freshly run cells are added, and the
// merged manifest plus its metric tables are rewritten. Manifests are
// written on successful completion, so -resume grows a campaign in
// stages: run a narrow spec first, then rerun with added spare counts,
// schemes, grids, or workloads and only the new cells compute. The
// seed, replicate count, and pass-through trial parameters must match
// the prior manifest's; cells of dimension values the current spec no
// longer lists are dropped from the merged output.
//
// -shard i/n runs only the i-th of n contiguous replicate blocks of
// every campaign cell (1-based), so one campaign splits across boxes:
// each box runs the same spec with its own -shard and -name, and
// because replicate seeds derive from the full range, every shard
// computes exactly the trials the unsharded campaign would. -merge
// stitches the resulting shard manifests back into one campaign
// manifest plus metric tables, validating that the shards share one
// spec and that their replicate ranges tile the full range without
// overlap, gap, or duplicated shards. A single manifest covering the
// whole range (-shard 1/1) merges degenerately into the unsharded
// manifest. Merged medians cannot be recomputed from shard summaries;
// they are count-weighted estimates marked "median_approx" in the
// manifest.
//
// -dispatch n does all of that automatically, and fault-tolerantly: it
// splits the campaign's replicate range into blocks (two per slot by
// default) fed to n worker slots from a lease-based work queue. A slot
// leasing a block runs one supervised worker subprocess (the current
// binary by default; -exec prefixes the command, with "{slot}" replaced
// by the slot number, so "ssh box{slot} --" reaches remote machines
// sharing the -out directory; -fleet names an inventory file giving
// every slot its own prefix). Progress events on the worker's stdout
// renew the lease: a worker silent for -lease-timeout is killed and its
// block re-queued, failed blocks are retried with -resume from their
// checkpoint manifests after a jittered backoff (-max-retries caps
// relaunches per block), idle slots steal speculative duplicates of
// straggling blocks (first completion wins; duplicates are
// byte-identical by determinism), and slots that keep failing are
// retired so a dead box shrinks the fleet instead of stalling it. The
// driver folds the workers' progress into one live fleet meter and
// merges the shard manifests into the final campaign manifest.
// SIGINT/SIGTERM drain gracefully: workers flush checkpoints, the
// ledger records the abort, and a -resume rerun picks up every
// surviving checkpoint. The WSNSWEEP_CHAOS harness (see chaos.go)
// injects worker faults to test all of this end to end.
//
// -if-cached names a sweepd manifest store (internal/sweepd): when the
// store already holds a manifest for this spec's hash — execution-only
// fields like -workers never affect the hash — the run is skipped and
// the cached manifest's path prints on stdout; otherwise the campaign
// runs and its manifest is installed, so scripts and CI get exactly the
// dedupe the daemon performs. The spec must be unsharded (results are
// byte-identical at any worker count, so a cached manifest answers for
// every execution layout).
//
// -progress selects the progress channel: "meter" is the human line on
// stderr, "json" emits newline-delimited experiment.Progress events
// ({"done":..,"total":..,"group":..,"group_done":..}) on stdout — the
// protocol dispatch supervisors consume; combined with -dispatch it
// emits the merged fleet's progress instead, so a supervisor of
// supervisors composes — and "none" is silent. -checkpoint rewrites the
// manifest (atomically) every time a campaign cell completes, so a
// killed run leaves a partial manifest a later -resume picks up; the
// dispatch driver enables it for every worker.
//
// Observability: -dash addr serves the live telemetry dashboard
// (internal/telemetry) while the campaign runs — an HTML page at /, the
// snapshot stream at /events (SSE, or NDJSON with ?format=ndjson),
// liveness at /healthz, and net/http/pprof under -pprof. -dash-linger
// keeps it serving after completion so a human can see the final state.
// Every run appends one record to the run ledger when it ends —
// completed, failed, or aborted, the status says which
// (<out>/ledger.ndjson, or -ledger path; -ledger none disables), the
// NDJSON history cmd/runlog queries. Structured logs go to stderr via
// log/slog; WSNSWEEP_LOG sets the level and WSNSWEEP_LOG_FORMAT=json
// makes them machine-parseable.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"wsncover/internal/campaign"
	"wsncover/internal/dispatch"
	"wsncover/internal/experiment"
	"wsncover/internal/sim"
	"wsncover/internal/sweepd"
	"wsncover/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// progressOut is where -progress=json events go. It is the process
// stdout — a dispatch supervisor reads the worker's stdout — and a
// variable only so tests can capture the stream.
var progressOut io.Writer = os.Stdout

// jsonProgress emits the newline-delimited progress protocol
// (experiment.Progress events) a dispatch supervisor consumes. The
// initial and final events always go out — the supervisor needs the
// totals up front and the completion for certain — and intermediate
// events are throttled like the human meter so a fast campaign never
// bottlenecks on pipe writes. Each event carries the current group's
// completed-trial count (GroupDone), and a group finishing forces an
// event, so the supervisor's per-group ledger sees every group reach
// its final count even under throttling.
type jsonProgress struct {
	w          io.Writer
	total      int
	last       time.Time
	groupTotal map[string]int
	groupDone  map[string]int
}

func newJSONProgress(w io.Writer, total int, groupTotal map[string]int) *jsonProgress {
	e := &jsonProgress{
		w: w, total: total,
		groupTotal: groupTotal,
		groupDone:  make(map[string]int, len(groupTotal)),
	}
	e.w.Write(experiment.Progress{Done: 0, Total: e.total}.MarshalLine())
	return e
}

func (e *jsonProgress) emit(done int, group string) {
	e.groupDone[group]++
	boundary := e.groupDone[group] == e.groupTotal[group]
	now := time.Now()
	if done != e.total && !boundary && now.Sub(e.last) < 200*time.Millisecond {
		return
	}
	e.last = now
	e.w.Write(experiment.Progress{
		Done: done, Total: e.total,
		Group: group, GroupDone: e.groupDone[group],
	}.MarshalLine())
}

// fleetJSON re-emits a dispatch fleet's merged progress as the same
// NDJSON protocol the workers speak — "-dispatch n -progress=json"
// composes: a supervisor of this process parses the stream exactly as
// this process parses its workers'. The initial full-total event is
// written by the caller before the fleet starts; terminal snapshots
// always go out.
type fleetJSON struct {
	w    io.Writer
	last time.Time
}

func (e *fleetJSON) update(snap dispatch.FleetSnapshot) {
	now := time.Now()
	if !snap.Terminal() && now.Sub(e.last) < 200*time.Millisecond {
		return
	}
	e.last = now
	e.w.Write(snap.Fleet.MarshalLine())
}

// dashNotify is a test hook: when set, it runs with the dashboard's
// bound address (and its hub) after the server starts and before the
// campaign does, so a test can subscribe ahead of the first event.
var dashNotify func(addr string, hub *telemetry.Hub)

// dashAddrFileEnv, when set, names a file the bound dashboard address is
// written to — the hook CI's smoke test uses to find a ":0" port.
const dashAddrFileEnv = "WSNSWEEP_DASH_ADDR_FILE"

// dashRig bundles the live-dashboard pieces -dash turns on: the hub the
// campaign publishes into, the HTTP server over it, and the publisher
// that stamps snapshots with elapsed/rate/ETA.
type dashRig struct {
	hub    *telemetry.Hub
	server *telemetry.Server
	pub    *telemetry.Publisher
	addr   string
	linger time.Duration
}

func startDash(addr string, pprof bool, linger time.Duration, logger *slog.Logger) (*dashRig, error) {
	hub := telemetry.NewHub()
	srv := telemetry.NewServer(hub)
	srv.Pprof = pprof
	bound, err := srv.Start(addr)
	if err != nil {
		return nil, err
	}
	logger.Info("dashboard serving", "addr", bound, "url", "http://"+bound+"/", "pprof", pprof)
	if path := os.Getenv(dashAddrFileEnv); path != "" {
		if err := os.WriteFile(path, []byte(bound), 0o644); err != nil {
			srv.Close()
			return nil, err
		}
	}
	if dashNotify != nil {
		dashNotify(bound, hub)
	}
	return &dashRig{hub: hub, server: srv, pub: telemetry.NewPublisher(hub), addr: bound, linger: linger}, nil
}

// finish shuts the dashboard down; after a successful campaign it first
// lingers (-dash-linger) so a human — or a smoke test — can still read
// the final state. Nil-safe, so call sites need no -dash conditionals.
func (d *dashRig) finish(runErr error) {
	if d == nil {
		return
	}
	if runErr == nil && d.linger > 0 {
		time.Sleep(d.linger)
	}
	d.server.Close()
}

// fleetStats rides the dispatch progress callback and captures what the
// ledger records about a fleet run: worker relaunch counts and each
// group's active wall span (snapshot-granular — from the first snapshot
// where the group shows progress to the last where its count advanced).
type fleetStats struct {
	shards    int
	attempts  []int
	prevDone  map[string]int
	groupSpan *telemetry.GroupTimer
}

func newFleetStats() *fleetStats {
	return &fleetStats{prevDone: make(map[string]int), groupSpan: telemetry.NewGroupTimer()}
}

func (f *fleetStats) update(s dispatch.FleetSnapshot) {
	f.shards = len(s.Shards)
	if f.attempts == nil {
		f.attempts = make([]int, len(s.Shards))
	}
	for i, sh := range s.Shards {
		if i < len(f.attempts) && sh.Attempts > f.attempts[i] {
			f.attempts[i] = sh.Attempts
		}
	}
	for _, g := range s.Groups {
		if g.Done > f.prevDone[g.Group] {
			f.prevDone[g.Group] = g.Done
			f.groupSpan.Observe(g.Group)
		}
	}
}

// retries is the number of worker relaunches the fleet needed.
func (f *fleetStats) retries() int {
	n := 0
	for _, a := range f.attempts {
		if a > 1 {
			n += a - 1
		}
	}
	return n
}

// resolveLedger turns the -ledger flag into a path: the default is
// <out>/ledger.ndjson, "none" disables (empty return).
func resolveLedger(flagVal, outDir string) string {
	switch flagVal {
	case "none":
		return ""
	case "":
		return filepath.Join(outDir, "ledger.ndjson")
	}
	return flagVal
}

// putCached puts a finished manifest in the -if-cached store so the
// next run of the same spec is a hit; a nil store is a no-op.
func putCached(store *sweepd.Store, hash string, m *experiment.Manifest, logger *slog.Logger) error {
	if store == nil {
		return nil
	}
	stored, err := store.Put(hash, m)
	if err != nil {
		return fmt.Errorf("putting manifest in store: %w", err)
	}
	logger.Info("manifest put in store", "hash", hash, "path", stored)
	return nil
}

// appendLedger stamps the record with the spec hash and this process's
// CPU time (reaped dispatch workers included), appends it, and logs
// it; an empty path (-ledger none) skips it. A ledger failure is
// reported but never fails a completed campaign.
func appendLedger(path string, rec telemetry.Record, spec sim.CampaignSpec, logger *slog.Logger) {
	if path == "" {
		return
	}
	hash, err := telemetry.SpecHash(spec)
	if err != nil {
		logger.Error("ledger: hashing spec", "err", err)
		return
	}
	rec.SpecHash = hash
	rec.CPUS = telemetry.CPUSeconds()
	if err := telemetry.AppendRecord(path, rec); err != nil {
		logger.Error("ledger append failed", "path", path, "err", err)
		return
	}
	logger.Debug("ledger appended", "path", path, "mode", rec.Mode, "spec_hash", hash)
}

// writeTables exports one CSV/gnuplot table per requested metric,
// logging to w (stdout normally, stderr when stdout carries the JSON
// progress protocol).
func writeTables(w io.Writer, points []experiment.Point, metricsS, outDir, name string, replicates int, ascii bool) error {
	metrics := splitList(metricsS)
	if len(metrics) == 1 && metrics[0] == "all" {
		metrics = experiment.MetricNames(points)
	}
	sort.Strings(metrics)
	for _, metric := range metrics {
		tb, err := experiment.Table(points, metric,
			fmt.Sprintf("%s: mean %s per trial (%d replicates/cell)", name, metric, replicates),
			"N", metric)
		if err != nil {
			return err
		}
		paths, err := tb.SaveAll(outDir, name+"-"+metric)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", strings.Join(paths, ", "))
		if ascii {
			fmt.Fprintln(w, tb.ASCII(72, 16))
		}
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range splitList(s) {
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseSchemes(s string) ([]sim.SchemeKind, error) {
	var out []sim.SchemeKind
	for _, f := range splitList(s) {
		k, err := sim.ParseSchemeKind(f)
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

func parseGrids(s string) ([]sim.GridSize, error) {
	var out []sim.GridSize
	for _, f := range splitList(s) {
		g, err := sim.ParseGridSize(f)
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	return out, nil
}

func parseFailures(s string) ([]sim.FailureMode, error) {
	var out []sim.FailureMode
	for _, f := range splitList(s) {
		m, err := sim.ParseFailureMode(f)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

func parseWorkloads(s string) ([]sim.WorkloadSpec, error) {
	var out []sim.WorkloadSpec
	for _, f := range splitList(s) {
		spec := sim.WorkloadSpec{Kind: strings.ToLower(f)}
		if _, err := sim.BuildWorkload(spec); err != nil {
			return nil, err
		}
		out = append(out, spec)
	}
	return out, nil
}

func parseRunners(s string) ([]sim.RunnerKind, error) {
	var out []sim.RunnerKind
	for _, f := range splitList(s) {
		r, err := sim.ParseRunnerKind(f)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// parseShard resolves "-shard i/n" (1-based) into the contiguous
// replicate block [first, first+count) of shard i; the even-split math
// is sim.ShardRange, shared with the dispatch driver so hand-launched
// and dispatched shards always cover identical ranges.
func parseShard(s string, replicates int) (first, count int, err error) {
	is, ns, ok := strings.Cut(strings.TrimSpace(s), "/")
	i, errI := strconv.Atoi(is)
	n, errN := strconv.Atoi(ns)
	if !ok || errI != nil || errN != nil {
		return 0, 0, fmt.Errorf("bad shard %q (want i/n, e.g. 2/4)", s)
	}
	return sim.ShardRange(i, n, replicates)
}

// runMerge stitches shard manifests (same spec, disjoint replicate
// ranges produced with -shard or -dispatch) into one campaign manifest
// plus metric tables. All validation — overlap, gaps, spec drift, the
// same shard passed twice, non-shard inputs — lives in
// dispatch.MergeShardManifests and fails loudly; a silent bad merge
// would corrupt the paired-seed methodology the campaign layer
// guarantees. A single manifest covering the whole replicate range
// merges degenerately.
func runMerge(w io.Writer, paths []string, outDir, name, metricsS string, ascii bool) error {
	manifest, mergedSpec, err := dispatch.MergeShardManifests(paths, name)
	if err != nil {
		return err
	}
	path, err := manifest.Save(outDir)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "merged %d shard manifest(s) into %s (%d jobs, %d points)\n",
		len(paths), path, manifest.Jobs, len(manifest.Points))
	return writeTables(w, manifest.Points, metricsS, outDir, name, mergedSpec.Replicates, ascii)
}

func loadSpec(path string) (sim.CampaignSpec, error) {
	var spec sim.CampaignSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := sim.UnmarshalSpecJSON(data, &spec); err != nil {
		return spec, fmt.Errorf("spec %s: %w", path, err)
	}
	return spec, nil
}

// runDispatch is the -dispatch / -fleet mode: supervise a fleet of
// worker slots over the shard work queue, then persist the auto-merged
// campaign manifest and its tables exactly like an unsharded run would.
// The fleet's progress stream tees to every observer the flags turned
// on — terminal meter, NDJSON re-emitter, dashboard publisher — plus
// the ledger's stats capture; all ride the same serialized callback.
// A fleet that fails or is aborted still gets its ledger record, with
// Status saying how it ended, so the run history shows unhealthy runs.
func runDispatch(ctx context.Context, w io.Writer, spec sim.CampaignSpec, opts dispatch.Options, metricsS string, ascii bool, progressMode string, logger *slog.Logger, rig *dashRig, ledPath string) (*experiment.Manifest, error) {
	outDir, name := opts.OutDir, opts.Name
	var sinks []func(dispatch.FleetSnapshot)
	if progressMode == "meter" {
		fm := dispatch.NewFleetMeter(os.Stderr)
		sinks = append(sinks, fm.Update)
	}
	if progressMode == "json" {
		// The initial event goes out before the fleet starts, carrying the
		// full campaign total — the same contract our own workers honor.
		progressOut.Write(experiment.Progress{Done: 0, Total: spec.NumJobs()}.MarshalLine())
		fj := &fleetJSON{w: progressOut}
		sinks = append(sinks, fj.update)
	}
	stats := newFleetStats()
	sinks = append(sinks, stats.update)
	if rig != nil {
		sinks = append(sinks, dispatch.Publish(rig.pub))
	}
	opts.OnProgress = func(s dispatch.FleetSnapshot) {
		for _, sink := range sinks {
			sink(s)
		}
	}
	start := time.Now()
	manifest, mergedSpec, err := dispatch.Run(ctx, spec, opts)
	res := campaign.Result{Name: name, Spec: spec, Wall: time.Since(start)}
	if err != nil {
		rec := res.Record("dispatch", "", err)
		rec.Retries = stats.retries()
		appendLedger(ledPath, rec, spec, logger)
		return nil, err
	}
	res.Spec, res.Manifest, res.Ran = mergedSpec, manifest, manifest.Jobs
	path, err := manifest.Save(outDir)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "dispatched fleet; merged into %s (%d jobs, %d points)\n",
		path, manifest.Jobs, len(manifest.Points))
	if err := writeTables(w, manifest.Points, metricsS, outDir, name, mergedSpec.Replicates, ascii); err != nil {
		return nil, err
	}
	if progressMode != "json" {
		printSummary(w, manifest.Points)
	}
	rec := res.Record("dispatch", path, nil)
	rec.Shards, rec.Retries, rec.GroupSeconds = stats.shards, stats.retries(), stats.groupSpan.Seconds()
	appendLedger(ledPath, rec, mergedSpec, logger)
	return manifest, nil
}

// signalContext cancels the returned context on the first SIGINT or
// SIGTERM, so campaigns drain gracefully — workers flush their
// checkpoints, the ledger records the abort — and exits immediately on
// the second signal for the human leaning on Ctrl-C.
func signalContext(logger *slog.Logger) (context.Context, func()) {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig, ok := <-ch
		if !ok {
			return
		}
		logger.Warn("signal received: draining (checkpoints flush, ledger records the abort); second signal exits immediately",
			"signal", sig.String())
		cancel()
		if sig, ok := <-ch; ok {
			logger.Error("second signal: exiting immediately", "signal", sig.String())
			os.Exit(130)
		}
	}()
	return ctx, func() {
		signal.Stop(ch)
		close(ch)
		cancel()
	}
}

// printSummary renders the per-point digest shown after every
// successful campaign.
func printSummary(w io.Writer, points []experiment.Point) {
	for _, p := range points {
		fmt.Fprintf(w, "%-24s N=%-5g moves=%6.1f±%-5.1f dist=%7.1f success=%5.1f%% recovered=%5.1f%%\n",
			p.Group, p.X,
			p.Metrics["moves"].Mean, p.Metrics["moves"].CI95,
			p.Metrics["distance"].Mean,
			p.Metrics["success_rate"].Mean,
			100*p.Metrics["recovered"].Mean)
	}
}

func run(args []string) (err error) {
	var dash *dashRig
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		specPath   = fs.String("spec", "", "JSON campaign spec file (replaces the dimension flags)")
		schemesS   = fs.String("schemes", "SR,AR", "comma-separated schemes: SR, SR+shortcut, AR")
		gridsS     = fs.String("grids", "16x16", "comma-separated grid sizes, CxR")
		sparesS    = fs.String("spares", "", "comma-separated spare counts N (default: the paper's x axis)")
		holesS     = fs.String("holes", "1", "comma-separated simultaneous hole counts")
		failuresS  = fs.String("failures", "holes", "comma-separated legacy damage models: holes, jam")
		workloadsS = fs.String("workloads", "", "comma-separated workload kinds: "+strings.Join(sim.WorkloadKinds(), ", ")+" (parameters via -spec)")
		listWk     = fs.Bool("list-workloads", false, "print the registered workload kinds with parameters and exit")
		ttlsS      = fs.String("ttls", "", "comma-separated claim TTLs in rounds (adds a campaign dimension; SR-family sync runs only, 0 = claims never expire)")
		runnersS   = fs.String("runners", "", "comma-separated trial runners: sync, async (default sync)")
		resume     = fs.Bool("resume", false, "skip (group, N) cells already in the output manifest and merge new results into it")
		shardS     = fs.String("shard", "", "replicate shard i/n: run only the i-th of n contiguous replicate blocks (stitch with -merge)")
		merge      = fs.Bool("merge", false, "merge the shard manifests given as arguments into one campaign manifest instead of running trials")
		dispatchN  = fs.Int("dispatch", 0, "run the campaign over n supervised worker slots (lease-based work queue) and auto-merge their manifests")
		execS      = fs.String("exec", "", "worker command prefix for -dispatch ({slot} = slot number), e.g. \"ssh box{slot} --\"")
		fleetS     = fs.String("fleet", "", "fleet inventory file: one worker slot per line (\"local\" or an -exec-style prefix); implies dispatch mode")
		leaseS     = fs.Duration("lease-timeout", 0, "dispatch heartbeat deadline: a worker silent this long is killed and its shard re-queued (0 = 2m; set above the slowest trial)")
		retriesN   = fs.Int("max-retries", 0, "dispatch relaunch budget per shard (0 = default 2, negative = none)")
		progressS  = fs.String("progress", "meter", "progress display: meter, json (event protocol on stdout), none")
		checkpoint = fs.Bool("checkpoint", false, "rewrite the manifest after every completed cell so a killed run can -resume")
		replicates = fs.Int("replicates", 20, "trials per campaign cell")
		seed       = fs.Int64("seed", 1, "base random seed")
		workers    = fs.Int("workers", 0, "parallel trial workers (0 = all cores)")
		jamRadius  = fs.Float64("jam-radius", 0, "jammed disc radius in meters (0 = 1.5 cells)")
		adjacent   = fs.Bool("adjacent", false, "allow adjacent hole cells")
		metricsS   = fs.String("metrics", "moves,distance,success_rate,recovered", "metrics to export as tables, or \"all\"")
		outDir     = fs.String("out", "out", "output directory for artifacts")
		name       = fs.String("name", "sweep", "campaign name (artifact base name)")
		ascii      = fs.Bool("ascii", false, "print ASCII previews of exported tables")
		quiet      = fs.Bool("quiet", false, "suppress the progress meter (alias for -progress none)")
		dashS      = fs.String("dash", "", "serve the live telemetry dashboard at this address (host:port; port 0 picks a free one)")
		dashLinger = fs.Duration("dash-linger", 0, "keep the dashboard serving this long after a successful campaign")
		pprofF     = fs.Bool("pprof", false, "expose net/http/pprof on the dashboard server (requires -dash)")
		ledgerS    = fs.String("ledger", "", "run-ledger NDJSON path (default <out>/ledger.ndjson; \"none\" disables)")
		ifCachedS  = fs.String("if-cached", "", "sweepd manifest store directory: on a spec-hash hit print the cached manifest path and exit without running; on a miss run and install the result")
	)
	// Collect positional arguments (the -merge shard manifests) while
	// allowing flags to follow them: the flag package stops at the first
	// positional, so re-parse the remainder until everything is consumed
	// ("sweep -merge a.json b.json -out dir" works either way around).
	var positional []string
	for rest := args; ; {
		if err := fs.Parse(rest); err != nil {
			return err
		}
		rest = fs.Args()
		// A lone "-" is a positional too (flag.Parse stops at it without
		// consuming it); collecting it keeps this loop making progress.
		for len(rest) > 0 && (rest[0] == "-" || !strings.HasPrefix(rest[0], "-")) {
			positional = append(positional, rest[0])
			rest = rest[1:]
		}
		if len(rest) == 0 {
			break
		}
	}

	if *listWk {
		for _, info := range sim.WorkloadInfos() {
			fmt.Fprintf(os.Stdout, "%-10s %s\n", info.Kind, info.Help)
			if len(info.Params) > 0 {
				fmt.Fprintf(os.Stdout, "%-10s params: %s\n", "", strings.Join(info.Params, ", "))
			}
		}
		return nil
	}

	logger := telemetry.NewLogger(os.Stderr)

	// Resolve the progress channel early: when stdout carries the JSON
	// event protocol, every informational print moves to stderr so the
	// supervisor's stream stays parseable.
	progressMode := *progressS
	if *quiet && progressMode == "meter" {
		progressMode = "none"
	}
	switch progressMode {
	case "meter", "json", "none":
	default:
		return fmt.Errorf("unknown -progress mode %q (want meter, json, or none)", progressMode)
	}
	infoW := io.Writer(os.Stdout)
	if progressMode == "json" {
		infoW = os.Stderr
	}
	if *pprofF && *dashS == "" {
		return fmt.Errorf("-pprof rides the dashboard server; it requires -dash")
	}

	if *merge {
		// Only output-shaping flags combine with -merge; any campaign
		// dimension flag would be silently ignored, so reject it instead.
		allowed := map[string]bool{"merge": true, "out": true, "name": true, "metrics": true, "ascii": true}
		var stray []string
		fs.Visit(func(f *flag.Flag) {
			if !allowed[f.Name] {
				stray = append(stray, "-"+f.Name)
			}
		})
		if len(stray) > 0 {
			return fmt.Errorf("-merge takes shard manifests as arguments and no campaign flags (got %s)",
				strings.Join(stray, ", "))
		}
		return runMerge(infoW, positional, *outDir, *name, *metricsS, *ascii)
	}
	if len(positional) > 0 {
		return fmt.Errorf("unexpected arguments %v (only -merge takes manifests)", positional)
	}

	var spec sim.CampaignSpec
	if *specPath != "" {
		loaded, err := loadSpec(*specPath)
		if err != nil {
			return err
		}
		spec = loaded
	} else {
		failuresFlagSet := false
		fs.Visit(func(f *flag.Flag) { failuresFlagSet = failuresFlagSet || f.Name == "failures" })
		var err error
		if spec.Schemes, err = parseSchemes(*schemesS); err != nil {
			return err
		}
		if spec.Grids, err = parseGrids(*gridsS); err != nil {
			return err
		}
		if spec.Spares, err = parseInts(*sparesS); err != nil {
			return err
		}
		if spec.Holes, err = parseInts(*holesS); err != nil {
			return err
		}
		if spec.ClaimTTLs, err = parseInts(*ttlsS); err != nil {
			return err
		}
		if *workloadsS != "" {
			if failuresFlagSet {
				return fmt.Errorf("set -workloads or -failures, not both")
			}
			if spec.Workloads, err = parseWorkloads(*workloadsS); err != nil {
				return err
			}
		} else if spec.Failures, err = parseFailures(*failuresS); err != nil {
			return err
		}
		if spec.Runners, err = parseRunners(*runnersS); err != nil {
			return err
		}
		spec.Replicates = *replicates
		spec.BaseSeed = *seed
		spec.JamRadius = *jamRadius
		spec.AdjacentHolesOK = *adjacent
	}
	// Workers only changes wall clock, never results: an explicit flag
	// beats a value pinned in the spec file.
	workersFlagSet := false
	fs.Visit(func(f *flag.Flag) { workersFlagSet = workersFlagSet || f.Name == "workers" })
	if workersFlagSet || spec.Workers == 0 {
		spec.Workers = *workers
	}
	spec = spec.Normalized()
	if *shardS != "" {
		if spec.ShardCount > 0 {
			return fmt.Errorf("the spec file already pins a shard range; drop -shard or the spec fields")
		}
		first, count, err := parseShard(*shardS, spec.Replicates)
		if err != nil {
			return err
		}
		spec.ShardFirst, spec.ShardCount = first, count
	}
	if err := spec.Validate(); err != nil {
		return err
	}

	// -if-cached is the CLI flavor of sweepd's dedupe: a store hit by
	// spec hash short-circuits the whole run (the path prints on stdout
	// for scripts to capture), and a miss runs normally then installs
	// the finished manifest so the next caller hits. Execution-only
	// fields (workers, shard layout) don't participate in the hash, so
	// any completed run of the same science is a hit.
	var cacheStore *sweepd.Store
	var cacheHash string
	if *ifCachedS != "" {
		if err := spec.ValidateUnsharded(); err != nil {
			return fmt.Errorf("-if-cached: %w", err)
		}
		store, err := sweepd.OpenStore(*ifCachedS)
		if err != nil {
			return err
		}
		hash, err := telemetry.SpecHash(spec)
		if err != nil {
			return err
		}
		if path, ok := store.Get(hash); ok {
			logger.Info("spec already in store; skipping the run", "hash", hash, "manifest", path)
			fmt.Fprintln(os.Stdout, path)
			return nil
		}
		cacheStore, cacheHash = store, hash
	}

	ledPath := resolveLedger(*ledgerS, *outDir)
	if *dashS != "" {
		rig, derr := startDash(*dashS, *pprofF, *dashLinger, logger)
		if derr != nil {
			return derr
		}
		// The dashboard outlives the campaign by -dash-linger on success
		// and shuts down immediately on failure, whichever path returns.
		defer func() { rig.finish(err) }()
		dash = rig
	}

	if *dispatchN > 0 || *fleetS != "" {
		if spec.ShardCount > 0 {
			return fmt.Errorf("-dispatch splits the campaign itself; drop -shard (or the spec's shard range)")
		}
		if *checkpoint {
			return fmt.Errorf("-checkpoint belongs to workers; the dispatch driver enables it for every shard")
		}
		dopts := dispatch.Options{
			Slots:        *dispatchN,
			OutDir:       *outDir,
			Name:         *name,
			Resume:       *resume,
			Retries:      *retriesN,
			LeaseTimeout: *leaseS,
			Logger:       logger,
		}
		switch {
		case *fleetS != "" && *execS != "":
			return fmt.Errorf("-fleet gives every slot its own command prefix; drop -exec")
		case *fleetS != "":
			slots, err := dispatch.LoadFleetInventory(*fleetS)
			if err != nil {
				return err
			}
			exe, err := os.Executable()
			if err != nil {
				return err
			}
			// Inventory lines are command prefixes; the worker binary rides
			// at the end of each (remote slots reach it via the shared
			// filesystem the -out directory already requires).
			for i, s := range slots {
				if s != nil {
					slots[i] = append(s, exe)
				}
			}
			dopts.Fleet = slots
		case *execS != "":
			exe, err := os.Executable()
			if err != nil {
				return err
			}
			dopts.Worker = append(strings.Fields(*execS), exe)
		}
		ctx, stop := signalContext(logger)
		defer stop()
		manifest, err := runDispatch(ctx, infoW, spec, dopts, *metricsS, *ascii, progressMode, logger, dash, ledPath)
		if err != nil {
			return err
		}
		return putCached(cacheStore, cacheHash, manifest, logger)
	}
	if *execS != "" {
		return fmt.Errorf("-exec only applies to -dispatch")
	}
	if *leaseS != 0 || *retriesN != 0 {
		return fmt.Errorf("-lease-timeout and -max-retries only apply to dispatch mode (-dispatch or -fleet)")
	}

	// -resume: load the existing manifest (if any); its completed
	// (group, N) cells are skipped and carried over, so only missing
	// cells run.
	manifestPath := filepath.Join(*outDir, *name+".json")
	var prior *experiment.Manifest
	if *resume {
		if prior, err = campaign.LoadPrior(manifestPath, spec); err != nil {
			return fmt.Errorf("resume manifest %s: %w", manifestPath, err)
		}
	}
	plan := campaign.NewPlan(*name, spec, prior)
	if plan.Orphans > 0 {
		logger.Info("resume: dropping cells outside the current spec",
			"manifest", manifestPath, "orphans", plan.Orphans)
	}
	// Every progress observer is sized from the plan, so the meter's —
	// and the JSON protocol's — total always matches the delivered
	// stream: under -shard it is the shard's own trial count, never the
	// full campaign's replicate range.
	var meter *dispatch.Meter
	if progressMode == "meter" {
		meter = dispatch.NewMeter(os.Stderr, plan.Executed, plan.GroupTotal)
	}
	var emitter *jsonProgress
	if progressMode == "json" && plan.Executed > 0 {
		emitter = newJSONProgress(progressOut, plan.Executed, plan.GroupTotal)
	}
	// The dashboard tracker and the ledger's group timer ride the same
	// ordered hook as the meter; with a dashboard the tracker does both
	// jobs, without one a bare timer still feeds the ledger.
	var tracker *telemetry.Tracker
	var gtimer *telemetry.GroupTimer
	switch {
	case dash != nil:
		tracker = telemetry.NewTracker(dash.pub, plan.Executed, plan.GroupOrder, plan.GroupTotal)
	case ledPath != "":
		gtimer = telemetry.NewGroupTimer()
	}
	// -checkpoint rewrites the manifest path itself after every
	// completed cell, so a killed run leaves a prior for -resume.
	ckPath := ""
	if *checkpoint {
		ckPath = manifestPath
	}
	chaos := chaosFromEnv(logger)
	ctx, stop := signalContext(logger)
	defer stop()
	res, err := plan.Run(ctx, ckPath, func(group string, ran int) error {
		if meter != nil {
			meter.JobDone(group)
		}
		if emitter != nil {
			emitter.emit(ran, group)
		}
		if tracker != nil {
			tracker.TrialDone(group)
		} else if gtimer != nil {
			gtimer.Observe(group)
		}
		if chaos != nil {
			chaos.trialDone(ran)
		}
		return nil
	})
	if tracker != nil {
		tracker.Final()
	}
	mode := "run"
	if spec.ShardCount > 0 {
		mode = "shard"
	}
	if err != nil {
		// A failed or drained run still records itself: the checkpoints
		// the manifest path holds are only half the story, the ledger says
		// how the run ended so cmd/runlog surfaces unhealthy history.
		appendLedger(ledPath, res.Record(mode, "", err), spec, logger)
		return err
	}
	if plan.Resumed > 0 {
		logger.Info("resume: skipped completed cells",
			"manifest", manifestPath, "cells", plan.Resumed, "new_trials", res.Ran)
	}

	manifest := res.Manifest
	path, err := manifest.Save(*outDir)
	if err != nil {
		return err
	}
	fmt.Fprintf(infoW, "wrote %s (%d jobs, %d points)\n", path, manifest.Jobs, len(manifest.Points))
	if err := putCached(cacheStore, cacheHash, manifest, logger); err != nil {
		return err
	}

	if err := writeTables(infoW, manifest.Points, *metricsS, *outDir, *name, spec.Replicates, *ascii); err != nil {
		return err
	}

	// A worker speaking the JSON protocol skips the per-point digest:
	// its supervisor prints the merged campaign's once.
	if progressMode != "json" {
		printSummary(infoW, manifest.Points)
	}

	rec := res.Record(mode, path, nil)
	switch {
	case tracker != nil:
		rec.GroupSeconds = tracker.GroupSeconds()
	case gtimer != nil:
		rec.GroupSeconds = gtimer.Seconds()
	}
	appendLedger(ledPath, rec, spec, logger)
	return nil
}
