// Package dispatch runs one Monte-Carlo campaign as an elastic fleet of
// worker subprocesses over a replicate-granular work queue and merges
// the results automatically — the scale-past-one-box driver on top of
// cmd/sweep's -shard/-merge plumbing.
//
// Run splits a campaign spec into shards (replicate blocks, more of
// them than worker slots) with sim.CampaignSpec.SplitShards; replicate
// seeds derive from the full range, so every shard computes
// byte-identical slices of the unsharded campaign no matter which slot
// runs it, or how many times. Worker slots lease shards from the queue
// one at a time; a lease is renewed by heartbeats — valid events on the
// worker's newline-delimited JSON progress stream (experiment.Progress,
// cmd/sweep -progress=json) — and a worker that goes silent past the
// lease timeout is killed, reaped, and its shard re-queued. Failed
// attempts retry with capped exponential backoff and jitter, resuming
// from the checkpoint manifest the dead worker left behind; idle slots
// steal stragglers by racing a speculative duplicate attempt, with the
// first validated completion winning. A slot that fails repeatedly
// retires, shrinking the fleet instead of failing the campaign; the
// campaign fails only when a shard burns its whole relaunch budget or
// every slot retires. When every shard finishes, the winning shard
// manifests merge through MergeShardManifests into the final campaign
// manifest.
//
// The worker command is a template, so the fleet is not tied to the
// local box: Options.Worker{"ssh", "box{slot}", "--", "sweep"} runs
// slot i's attempts on host box<i>, and Options.Fleet gives each slot
// its own template for heterogeneous fleets (see ParseFleetInventory).
// The default template re-executes the current binary, which is what
// cmd/sweep -dispatch uses.
package dispatch

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"wsncover/internal/experiment"
	"wsncover/internal/sim"
)

// ShardState is the lifecycle of one shard (replicate block) in the
// work queue.
type ShardState int

const (
	// ShardPending: in the queue, waiting for a slot (possibly behind a
	// retry backoff gate).
	ShardPending ShardState = iota
	// ShardRunning: at least one worker attempt holds a lease on it.
	ShardRunning
	// ShardDone: a validated manifest is complete on disk.
	ShardDone
	// ShardFailed: the relaunch budget is exhausted; Err holds the last
	// error.
	ShardFailed
)

// String implements fmt.Stringer.
func (s ShardState) String() string {
	switch s {
	case ShardPending:
		return "pending"
	case ShardRunning:
		return "running"
	case ShardDone:
		return "done"
	case ShardFailed:
		return "failed"
	}
	return fmt.Sprintf("ShardState(%d)", int(s))
}

// ShardStatus is the live state of one shard: queue state, lease
// holder, and folded progress.
type ShardStatus struct {
	// Shard is the 1-based shard number.
	Shard int
	State ShardState
	// Progress counts the shard's trials: Total is the shard's full
	// trial count (computed from the spec, not trusted from the worker),
	// and Done folds the live attempts' reports on top of whatever a
	// resumed attempt skipped. A retry's first report resyncs Done to the
	// checkpointed prefix, so trials of partially completed cells — which
	// the resume recomputes — honestly drop off the meter rather than
	// being counted twice.
	Progress experiment.Progress
	// Attempts counts worker launches against this shard, first try and
	// speculative duplicates included.
	Attempts int
	// Slot is the worker slot holding the newest live lease (0 = none).
	Slot int
	// Leases is the number of live attempts: 0 when idle, 1 normally,
	// 2 while a speculative duplicate races a straggler.
	Leases int
	// LastBeat is the freshest heartbeat across the live attempts — the
	// time of the last valid progress event. Zero until the current
	// leaseholders' first event.
	LastBeat time.Time
	// ManifestPath is the shard manifest's canonical location.
	ManifestPath string
	// Err is the terminal error of a failed shard.
	Err error
}

// GroupProgress counts one campaign group's completed trials across the
// whole fleet, against the group's campaign-wide total.
type GroupProgress struct {
	Group string
	Done  int
	Total int
}

// FleetSnapshot is one serialized observation of the whole fleet,
// delivered to Options.OnProgress after every state change.
type FleetSnapshot struct {
	// Fleet is the merged progress of every shard (experiment.MergeProgress).
	Fleet experiment.Progress
	// Shards holds a copy of every shard's status, in shard order.
	Shards []ShardStatus
	// Groups breaks the fleet's progress down by campaign group, in job
	// order, folding the workers' per-group counts (Progress.GroupDone)
	// across shards. Completion is exact — a finished shard counts its
	// full per-group totals — while in-flight counts are a lower bound,
	// since a resumed attempt reports only the work it recomputes.
	Groups []GroupProgress
	// Slots is the fleet size; Retired counts the slots that hit their
	// failure budget and withdrew from the queue.
	Slots   int
	Retired int
}

// Terminal reports whether every shard has finished, successfully or
// not.
func (s FleetSnapshot) Terminal() bool {
	for _, sh := range s.Shards {
		if sh.State != ShardDone && sh.State != ShardFailed {
			return false
		}
	}
	return len(s.Shards) > 0
}

// Options configures a fleet run.
type Options struct {
	// Slots is the fleet size: how many worker subprocesses run
	// concurrently. Ignored when Fleet is set (each inventory line is a
	// slot).
	Slots int
	// Blocks is the work-queue granularity: the campaign's replicate
	// dimension splits into this many shards. Zero picks twice the slot
	// count (capped at the replicate count), so a straggling shard holds
	// at most half a slot's share of the campaign hostage and idle slots
	// have queue left to drain.
	Blocks int
	// Worker is the argv template invoked for each attempt before the
	// standard sweep arguments (-spec, -out, -name, -progress=json, ...)
	// are appended. The literal "{slot}" (or the legacy "{shard}") in
	// any element is replaced by the 1-based slot number, so
	// {"ssh", "box{slot}", "--", "sweep"} reaches one remote host per
	// slot. Empty means the current executable — every attempt a local
	// subprocess.
	Worker []string
	// Fleet gives each slot its own argv template (heterogeneous
	// fleets); a nil entry means the default local template. Overrides
	// Slots and Worker.
	Fleet [][]string
	// OutDir receives the shard spec files, shard manifests, and
	// checkpoints. With a remote Worker template it must name a
	// directory the workers and the driver share (NFS or equivalent).
	OutDir string
	// Name is the campaign name; shard artifacts are <Name>-b<i>.
	Name string
	// Retries is how many times a failed shard is relaunched (with
	// -resume, so checkpointed cells are not recomputed). Negative means
	// none; zero means the default of 2.
	Retries int
	// SlotFailures is the consecutive-failure budget per slot: a slot
	// whose attempts fail this many times in a row retires, shrinking
	// the fleet instead of failing the campaign. Zero means the default
	// of 3; negative means a single failure retires the slot.
	SlotFailures int
	// LeaseTimeout is the heartbeat deadline: a worker producing no
	// valid progress event for this long is presumed hung, killed, and
	// its shard re-queued. Zero means the default of 2 minutes. Set it
	// comfortably above the slowest single trial — progress events only
	// flow when trials complete.
	LeaseTimeout time.Duration
	// StealAfter is how long a shard's only attempt must have been
	// running before an idle slot may race a speculative duplicate
	// against it. Zero means half the lease timeout; negative disables
	// stealing.
	StealAfter time.Duration
	// Resume passes -resume to first attempts too, so a rerun of the
	// whole fleet picks up surviving shard manifests from a previous
	// dispatch instead of starting over.
	Resume bool
	// Env lists extra environment variables (KEY=VALUE) for workers, on
	// top of the driver's environment.
	Env []string
	// Stderr receives the workers' stderr, each line prefixed with its
	// shard ("shard 2: ..."); nil means the driver's stderr.
	Stderr io.Writer
	// OnProgress, when non-nil, observes every fleet state change.
	// Calls are serialized; keep it fast (a meter redraw).
	OnProgress func(FleetSnapshot)
	// Logger receives structured lifecycle events: launches and clean
	// exits at debug; retries, lease expiries, steals, malformed
	// progress lines, and slot retirements at warn; terminal shard
	// failures at error. Nil discards them.
	Logger *slog.Logger
}

func (o Options) logger() *slog.Logger {
	if o.Logger != nil {
		return o.Logger
	}
	return slog.New(slog.DiscardHandler)
}

func (o Options) retries() int {
	switch {
	case o.Retries < 0:
		return 0
	case o.Retries == 0:
		return 2
	}
	return o.Retries
}

func (o Options) slotFailures() int {
	switch {
	case o.SlotFailures < 0:
		return 1
	case o.SlotFailures == 0:
		return 3
	}
	return o.SlotFailures
}

func (o Options) leaseTimeout() time.Duration {
	if o.LeaseTimeout <= 0 {
		return 2 * time.Minute
	}
	return o.LeaseTimeout
}

func (o Options) stealAfter() time.Duration {
	switch {
	case o.StealAfter < 0:
		return -1
	case o.StealAfter == 0:
		return o.leaseTimeout() / 2
	}
	return o.StealAfter
}

// Run executes the campaign as an elastic fleet over a shard work queue
// and returns the merged manifest (not yet written to disk) plus the
// merged spec. The spec must not already pin a shard range. On failure
// — a shard exhausting its relaunch budget cancels the remaining
// workers; every slot retiring strands the queue — the error lists the
// root causes; surviving checkpoints and shard manifests stay in
// OutDir, so rerunning with Resume set picks up where the fleet
// stopped. Cancelling ctx drains the fleet: workers get SIGTERM (they
// flush checkpoints on the way down), shards release their leases, and
// Run returns ctx's error.
func Run(ctx context.Context, spec sim.CampaignSpec, opts Options) (*experiment.Manifest, sim.CampaignSpec, error) {
	var none sim.CampaignSpec
	slots := opts.Slots
	if len(opts.Fleet) > 0 {
		slots = len(opts.Fleet)
	}
	if slots < 1 {
		return nil, none, fmt.Errorf("dispatch: fleet needs at least one worker slot, got %d", slots)
	}
	if opts.Name == "" {
		opts.Name = "sweep"
	}
	if opts.OutDir == "" {
		opts.OutDir = "out"
	}
	spec = spec.Normalized()
	blocks := opts.Blocks
	if blocks <= 0 {
		blocks = 2 * slots
	}
	if blocks > spec.Replicates {
		blocks = spec.Replicates
	}
	shardSpecs, err := spec.SplitShards(blocks)
	if err != nil {
		return nil, none, fmt.Errorf("dispatch: %w", err)
	}

	f := &fleet{
		opts:       opts,
		slots:      slots,
		log:        opts.logger(),
		specs:      make([]string, blocks),
		names:      make([]string, blocks),
		canonical:  make([]string, blocks),
		blockTotal: make([]int, blocks),
		progress:   make([]experiment.Progress, blocks),
		attDone:    make([]map[int]int, blocks),
		launched:   make([]bool, blocks),
		groupTotal: make(map[string]int),
		groupDone:  make([]map[string]int, blocks),
		shardGroup: make([]map[string]int, blocks),
	}
	f.q = newShardQueue(blocks, opts.leaseTimeout(), opts.stealAfter(), opts.retries(), nil)
	if err := f.resolveTemplates(&spec, shardSpecs); err != nil {
		return nil, none, err
	}
	if f.opts.Stderr == nil {
		f.opts.Stderr = os.Stderr
	}
	if err := os.MkdirAll(opts.OutDir, 0o755); err != nil {
		return nil, none, fmt.Errorf("dispatch: %w", err)
	}

	// Campaign-wide group totals come from the unsharded spec, in job
	// order — the heatmap's rows and denominators.
	spec.ExecutedJobs(nil, func(j sim.TrialJob) {
		g := j.Group()
		if _, ok := f.groupTotal[g]; !ok {
			f.groupOrder = append(f.groupOrder, g)
		}
		f.groupTotal[g]++
	})
	for i, shSpec := range shardSpecs {
		n := i + 1
		// Each shard's full trial count is computed here, not trusted from
		// worker reports: a resumed attempt reports only its remaining
		// work, and the fleet totals must not shrink when that happens.
		f.attDone[i] = make(map[int]int)
		f.groupDone[i] = make(map[string]int)
		f.shardGroup[i] = make(map[string]int)
		shSpec.ExecutedJobs(nil, func(j sim.TrialJob) {
			f.blockTotal[i]++
			f.shardGroup[i][j.Group()]++
		})
		f.progress[i] = experiment.Progress{Total: f.blockTotal[i]}
		f.names[i] = blockName(opts.Name, n)
		f.canonical[i] = filepath.Join(opts.OutDir, f.names[i]+".json")
		specPath := filepath.Join(opts.OutDir, f.names[i]+".spec.json")
		// Atomic like every other artifact: a driver killed mid-write
		// must never leave a torn spec for a resume rerun to trip on.
		err := experiment.WriteFileAtomic(specPath, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(shSpec)
		})
		if err != nil {
			return nil, none, fmt.Errorf("dispatch: shard %d spec: %w", n, err)
		}
		f.specs[i] = specPath
	}

	// A shard out of retries dooms the merge; cancel the siblings
	// instead of burning their remaining work. Checkpoints survive for a
	// Resume rerun.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	f.cancel = cancel

	// The lease watchdog: ticks well inside the lease timeout so a hung
	// worker is detected within lease + tick, killed, and its shard
	// re-queued as soon as the supervising slot reaps the corpse.
	watchdogDone := make(chan struct{})
	go f.watchdog(runCtx, watchdogDone)

	var wg sync.WaitGroup
	for slot := 1; slot <= slots; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			f.slotLoop(runCtx, slot)
		}(slot)
	}
	wg.Wait()
	cancel()
	<-watchdogDone

	if failures := f.q.failures(); len(failures) > 0 {
		return nil, none, fmt.Errorf("dispatch: %w", errors.Join(failures...))
	}
	if err := ctx.Err(); err != nil {
		return nil, none, fmt.Errorf("dispatch: campaign aborted: %w", err)
	}
	if !f.q.terminal() {
		return nil, none, fmt.Errorf("dispatch: fleet exhausted: all %d worker slot(s) retired after repeated failures; "+
			"checkpoints in %s survive for a -resume rerun", slots, opts.OutDir)
	}

	// Every shard is done. Promote speculative winners to the canonical
	// paths (all workers are reaped, so nothing races the rename) and
	// clear their spare directories.
	winners, err := f.q.winners()
	if err != nil {
		return nil, none, fmt.Errorf("dispatch: %w", err)
	}
	for i, w := range winners {
		if w == f.canonical[i] {
			continue
		}
		if err := os.Rename(w, f.canonical[i]); err != nil {
			return nil, none, fmt.Errorf("dispatch: promoting stolen shard manifest: %w", err)
		}
		os.RemoveAll(filepath.Dir(w))
	}
	manifest, mergedSpec, err := MergeShardManifests(f.canonical, opts.Name)
	if err != nil {
		return nil, none, fmt.Errorf("dispatch: merging fleet manifests: %w", err)
	}
	return manifest, mergedSpec, nil
}

// blockName labels shard i's artifacts.
func blockName(name string, shard int) string {
	return fmt.Sprintf("%s-b%d", name, shard)
}

// fleet is the shared state of one Run: the work queue, the per-shard
// progress bookkeeping every slot goroutine mutates under mu, and the
// resolved worker templates.
type fleet struct {
	opts       Options
	slots      int
	q          *shardQueue
	log        *slog.Logger
	cancel     context.CancelFunc
	templates  [][]string // per-slot argv templates
	specs      []string   // shard spec file paths
	names      []string   // shard artifact base names
	canonical  []string   // canonical shard manifest paths
	blockTotal []int

	// The group ledger for fleet snapshots: campaign-wide totals in job
	// order, each shard's per-group totals, and the per-(shard, group)
	// high-water mark of reported GroupDone counts.
	groupOrder []string
	groupTotal map[string]int
	shardGroup []map[string]int

	mu        sync.Mutex
	progress  []experiment.Progress
	attDone   []map[int]int // per shard: attempt id → absolute done count
	launched  []bool        // a primary attempt has run (later primaries resume)
	groupDone []map[string]int
	retired   int
}

// resolveTemplates fills f.templates (one argv template per slot) and,
// for the all-local default fleet, splits the box's cores across the
// slots so concurrent workers do not oversubscribe the CPU n-fold.
// Worker counts change wall clock only, never results.
func (f *fleet) resolveTemplates(spec *sim.CampaignSpec, shardSpecs []sim.CampaignSpec) error {
	exe := func() (string, error) {
		e, err := os.Executable()
		if err != nil {
			return "", fmt.Errorf("dispatch: no worker template and no current executable: %w", err)
		}
		return e, nil
	}
	f.templates = make([][]string, f.slots)
	allLocal := true
	for slot := 0; slot < f.slots; slot++ {
		var tmpl []string
		switch {
		case len(f.opts.Fleet) > 0:
			tmpl = f.opts.Fleet[slot]
		default:
			tmpl = f.opts.Worker
		}
		if len(tmpl) == 0 {
			e, err := exe()
			if err != nil {
				return err
			}
			tmpl = []string{e}
		} else {
			allLocal = false
		}
		f.templates[slot] = tmpl
	}
	if allLocal && spec.Workers == 0 {
		per := runtime.GOMAXPROCS(0) / f.slots
		if per < 1 {
			per = 1
		}
		for i := range shardSpecs {
			shardSpecs[i].Workers = per
		}
	}
	return nil
}

// watchdog enforces lease deadlines: every tick it kills the attempts
// whose heartbeats went silent past the lease timeout. The shard is
// re-queued by the supervising slot once the corpse is reaped, so a
// zombie can never write over its successor's checkpoint.
func (f *fleet) watchdog(ctx context.Context, done chan<- struct{}) {
	defer close(done)
	tick := f.opts.leaseTimeout() / 8
	if tick > 250*time.Millisecond {
		tick = 250 * time.Millisecond
	}
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		for _, a := range f.q.expireStale() {
			f.log.Warn("lease expired: no heartbeat within deadline, killing worker",
				"shard", a.shard+1, "slot", a.slot, "attempt", a.id,
				"lease", f.opts.leaseTimeout(), "speculative", a.speculative)
			f.emit()
		}
	}
}

// slotLoop is one worker slot: lease a shard, supervise an attempt,
// report the outcome, repeat. The slot retires — without failing the
// campaign — after SlotFailures consecutive failed attempts, or when
// the queue is terminal, or when the fleet is cancelled.
func (f *fleet) slotLoop(ctx context.Context, slot int) {
	budget := f.opts.slotFailures()
	fails := 0
	for {
		if ctx.Err() != nil {
			return
		}
		att, wait := f.q.next(slot)
		if att == nil {
			if wait == 0 {
				return // queue terminal
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(wait):
			}
			continue
		}
		err := f.runAttempt(ctx, att)
		if err == nil {
			won, winner := f.q.complete(att)
			if !won {
				f.discardDuplicate(att, winner)
			}
			f.finishShard(att, won)
			fails = 0
			continue
		}
		expired := f.q.isExpired(att)
		if ctx.Err() != nil && !expired {
			// The worker died of SIGTERM because the fleet is shutting
			// down; make the error recognizably a cancellation echo so the
			// queue releases the lease instead of burning retry budget.
			err = fmt.Errorf("%w (worker: %v)", ctx.Err(), err)
		}
		outcome := f.q.finish(att, err)
		f.emit()
		switch outcome {
		case finishFatal:
			f.log.Error("shard failed terminally", "shard", att.shard+1, "slot", slot, "err", err)
			f.cancel()
			return
		case finishRequeued, finishShadowed:
			f.log.Warn("worker attempt failed; shard re-queued",
				"shard", att.shard+1, "slot", slot, "attempt", att.id,
				"expired", expired, "err", err)
		case finishDiscarded:
			f.log.Debug("duplicate attempt discarded", "shard", att.shard+1, "slot", slot)
		case finishReleased:
			f.log.Debug("lease released on shutdown", "shard", att.shard+1, "slot", slot)
		}
		if att.speculative && outcome != finishFatal {
			os.RemoveAll(filepath.Dir(att.manifest))
		}
		if outcome == finishRequeued || outcome == finishShadowed {
			fails++
			if fails >= budget {
				f.mu.Lock()
				f.retired++
				f.mu.Unlock()
				f.log.Warn("worker slot retired after repeated failures; fleet degrades gracefully",
					"slot", slot, "consecutive_failures", fails)
				f.emit()
				return
			}
		}
	}
}

// finishShard folds a completed shard into the fleet state.
func (f *fleet) finishShard(att *attempt, won bool) {
	i := att.shard
	f.mu.Lock()
	if won {
		f.progress[i].Done = f.progress[i].Total
		f.progress[i].Group = ""
		clear(f.attDone[i])
		// The shard's manifest is complete, so its groups are too,
		// whatever fraction of them this attempt recomputed.
		f.groupDone[i] = maps.Clone(f.shardGroup[i])
	}
	f.mu.Unlock()
	f.log.Debug("shard done", "shard", i+1, "slot", att.slot, "speculative", att.speculative, "won", won)
	f.emit()
}

// discardDuplicate byte-compares a late duplicate completion against
// the winning manifest — under deterministic seeding they must be
// identical, so a mismatch is a reproducibility bug worth shouting
// about — then removes the duplicate.
func (f *fleet) discardDuplicate(att *attempt, winner string) {
	mine, errA := os.ReadFile(att.manifest)
	theirs, errB := os.ReadFile(winner)
	switch {
	case errA != nil || errB != nil:
		f.log.Warn("duplicate completion: cannot byte-compare", "shard", att.shard+1, "errs",
			errors.Join(errA, errB))
	case !bytes.Equal(mine, theirs):
		f.log.Error("determinism violation: duplicate shard manifests differ",
			"shard", att.shard+1, "winner", winner, "duplicate", att.manifest)
	default:
		f.log.Debug("duplicate shard manifest is byte-identical; discarding",
			"shard", att.shard+1, "duplicate", att.manifest)
	}
	if att.speculative {
		os.RemoveAll(filepath.Dir(att.manifest))
	}
}

// emit broadcasts a fleet snapshot to OnProgress (serialized under mu).
func (f *fleet) emit() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.opts.OnProgress == nil {
		return
	}
	f.opts.OnProgress(f.snapshotLocked())
}

func (f *fleet) snapshotLocked() FleetSnapshot {
	shards := make([]ShardStatus, len(f.progress))
	events := make([]experiment.Progress, len(f.progress))
	for i := range f.progress {
		v := f.q.view(i)
		shards[i] = ShardStatus{
			Shard:        i + 1,
			State:        v.State,
			Progress:     f.progress[i],
			Attempts:     v.Attempts,
			Slot:         v.Slot,
			Leases:       v.Live,
			LastBeat:     v.LastBeat,
			ManifestPath: f.canonical[i],
			Err:          v.Err,
		}
		events[i] = f.progress[i]
	}
	groups := make([]GroupProgress, len(f.groupOrder))
	for gi, g := range f.groupOrder {
		done := 0
		for i := range f.groupDone {
			d := f.groupDone[i][g]
			if max := f.shardGroup[i][g]; d > max {
				d = max
			}
			done += d
		}
		groups[gi] = GroupProgress{Group: g, Done: done, Total: f.groupTotal[g]}
	}
	return FleetSnapshot{
		Fleet:   experiment.MergeProgress(events...),
		Shards:  shards,
		Groups:  groups,
		Slots:   f.slots,
		Retired: f.retired,
	}
}

// observeEvent folds one valid progress event from an attempt into the
// fleet state and broadcasts a snapshot. The event has already beaten
// the attempt's lease.
func (f *fleet) observeEvent(att *attempt, ev experiment.Progress) {
	i := att.shard
	f.mu.Lock()
	// A resumed attempt reports done/total of its remaining work only;
	// the skipped prefix stays counted as done.
	skipped := f.blockTotal[i] - ev.Total
	if skipped < 0 {
		skipped = 0
	}
	done := skipped + ev.Done
	if done > f.blockTotal[i] {
		done = f.blockTotal[i]
	}
	f.attDone[i][att.id] = done
	// The shard's displayed count is the best live attempt's — so a
	// speculative duplicate starting from zero never drags a straggler's
	// meter backwards, while a sequential retry honestly resyncs down to
	// its checkpointed prefix.
	best := 0
	for _, d := range f.attDone[i] {
		if d > best {
			best = d
		}
	}
	f.progress[i].Done = best
	f.progress[i].Group = ev.Group
	// Per-group counts fold as high-water marks: workers force an
	// event at every group boundary, so each group's final count
	// lands even under throttling, and a resumed attempt restarting
	// a group from its remaining work cannot regress the ledger.
	if ev.Group != "" && ev.GroupDone > f.groupDone[i][ev.Group] {
		f.groupDone[i][ev.Group] = ev.GroupDone
	}
	if f.opts.OnProgress != nil {
		f.opts.OnProgress(f.snapshotLocked())
	}
	f.mu.Unlock()
}

// dropAttempt forgets a dead attempt's progress contribution. The
// shard's displayed count keeps its last value until a successor
// reports (and resyncs it honestly).
func (f *fleet) dropAttempt(att *attempt) {
	f.mu.Lock()
	delete(f.attDone[att.shard], att.id)
	f.mu.Unlock()
}

// runAttempt launches and supervises one worker attempt: it streams the
// worker's stdout through the progress-as-heartbeat contract (valid
// events beat the lease; malformed lines are logged and burn the
// deadline; chatter is ignored), waits for the process, and validates
// the manifest a clean exit must leave behind. A nil return means the
// attempt's manifest is complete and validated at att.manifest.
func (f *fleet) runAttempt(ctx context.Context, att *attempt) error {
	defer f.dropAttempt(att)
	i := att.shard
	outDir := f.opts.OutDir
	resume := false
	if att.speculative {
		// A speculative duplicate races the straggler from scratch in its
		// own spare directory — same artifact name, so the manifests are
		// byte-comparable, but never the straggler's checkpoint file.
		outDir = filepath.Join(f.opts.OutDir, fmt.Sprintf(".spare-%s-a%d", f.names[i], att.id))
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	} else {
		f.mu.Lock()
		resume = f.opts.Resume || f.launched[i]
		f.launched[i] = true
		f.mu.Unlock()
	}
	att.manifest = filepath.Join(outDir, f.names[i]+".json")

	argv := expandWorker(f.templates[att.slot-1], att.slot)
	argv = append(argv, workerArgs(f.specs[i], outDir, f.names[i], resume)...)
	f.log.Debug("worker launch", "shard", i+1, "slot", att.slot, "attempt", att.id,
		"resume", resume, "speculative", att.speculative, "argv", strings.Join(argv, " "))
	attCtx, attCancel := context.WithCancel(ctx)
	defer attCancel()
	cmd := exec.CommandContext(attCtx, argv[0], argv[1:]...)
	// Drain gracefully: on cancellation the worker gets SIGTERM first —
	// it flushes its checkpoint and ledger record on the way down — and
	// WaitDelay bounds how long we humor it (and any grandchildren
	// holding the pipes) before SIGKILL. The bound also caps how long an
	// expired lease's shard waits to be re-queued.
	cmd.Cancel = func() error {
		err := cmd.Process.Signal(syscall.SIGTERM)
		if errors.Is(err, os.ErrProcessDone) {
			return nil
		}
		return err
	}
	cmd.WaitDelay = f.opts.leaseTimeout() / 2
	if cmd.WaitDelay < 200*time.Millisecond {
		cmd.WaitDelay = 200 * time.Millisecond
	}
	if cmd.WaitDelay > 5*time.Second {
		cmd.WaitDelay = 5 * time.Second
	}
	if len(f.opts.Env) > 0 {
		cmd.Env = append(os.Environ(), f.opts.Env...)
	}
	stderr := &lineWriter{mu: &stderrMu, w: f.opts.Stderr, prefix: fmt.Sprintf("shard %d: ", i+1)}
	defer stderr.flush()
	cmd.Stderr = stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	// The watchdog can now kill this attempt; a pre-bind expiry fires
	// immediately. Closing the pipe on cancellation unblocks the reader.
	f.q.bind(att, attCancel)
	go func() {
		<-attCtx.Done()
		stdout.Close()
	}()

	f.superviseStream(att, stdout)
	if err := cmd.Wait(); err != nil {
		if f.q.isExpired(att) {
			return fmt.Errorf("worker %s: %w", strings.Join(argv, " "), errLeaseExpired)
		}
		return fmt.Errorf("worker %s: %w", strings.Join(argv, " "), err)
	}
	if err := validateShardManifest(att.manifest, f.blockTotal[i]); err != nil {
		// An invalid manifest cannot seed a -resume; clear it so the
		// retry starts from the last good checkpoint state (or scratch).
		os.Remove(att.manifest)
		return fmt.Errorf("worker %s: %w", strings.Join(argv, " "), err)
	}
	return nil
}

// superviseStream reads the worker's stdout line by line, enforcing the
// progress-as-heartbeat contract. Overlong lines (>1MB without a
// newline) are treated as malformed rather than buffered without bound.
func (f *fleet) superviseStream(att *attempt, r io.Reader) {
	const maxLine = 1 << 20
	br := bufio.NewReaderSize(r, 64*1024)
	var line []byte
	overlong := false
	handle := func(line []byte) {
		ev, kind := experiment.ClassifyProgressLine(line)
		switch kind {
		case experiment.LineEvent:
			f.q.beat(att)
			f.observeEvent(att, ev)
		case experiment.LineMalformed:
			snippet := line
			if len(snippet) > 120 {
				snippet = snippet[:120]
			}
			f.log.Warn("malformed progress line from worker: skipping (no heartbeat credit)",
				"shard", att.shard+1, "slot", att.slot, "len", len(line),
				"line", string(snippet))
		}
	}
	for {
		chunk, isPrefix, err := br.ReadLine()
		if len(chunk) > 0 {
			switch {
			case overlong:
				// Discarding the tail of a line already ruled malformed.
			case len(line)+len(chunk) > maxLine:
				overlong = true
				f.log.Warn("overlong progress line from worker: skipping (no heartbeat credit)",
					"shard", att.shard+1, "slot", att.slot)
			default:
				line = append(line, chunk...)
			}
		}
		if err != nil {
			if len(line) > 0 && !overlong {
				handle(line)
			}
			return
		}
		if !isPrefix {
			if !overlong {
				handle(line)
			}
			line, overlong = line[:0], false
		}
	}
}

// validateShardManifest accepts only a complete shard manifest: it must
// parse, and its job count must equal the shard's full trial count. A
// checkpoint (always a strict prefix of the shard) or a truncated write
// fails, so a worker that exits cleanly without finishing cannot pass a
// partial manifest off as done.
func validateShardManifest(path string, wantJobs int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("worker exited cleanly but left no manifest: %w", err)
	}
	var m experiment.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("manifest %s is corrupt: %w", path, err)
	}
	if m.Jobs != wantJobs {
		return fmt.Errorf("manifest %s is incomplete: records %d of %d jobs", path, m.Jobs, wantJobs)
	}
	return nil
}

// workerArgs is the standard sweep argument list appended to the worker
// template: run this spec file, write the shard manifest into outDir,
// speak the JSON progress protocol, checkpoint completed cells so a
// retry can resume, and skip per-metric tables (the merged campaign
// exports those once) and ledger records (the driver appends one record
// for the whole fleet).
func workerArgs(specPath, outDir, name string, resume bool) []string {
	args := []string{
		"-spec", specPath,
		"-out", outDir,
		"-name", name,
		"-metrics", "",
		"-progress", "json",
		"-checkpoint",
		"-ledger", "none",
	}
	if resume {
		args = append(args, "-resume")
	}
	return args
}

// expandWorker substitutes the 1-based slot number for "{slot}" (and
// the legacy "{shard}") in every template element.
func expandWorker(tmpl []string, slot int) []string {
	out := make([]string, len(tmpl))
	n := strconv.Itoa(slot)
	for i, t := range tmpl {
		t = strings.ReplaceAll(t, "{slot}", n)
		out[i] = strings.ReplaceAll(t, "{shard}", n)
	}
	return out
}

// stderrMu serializes whole lines from concurrent workers onto the
// shared stderr destination.
var stderrMu sync.Mutex

// lineWriter buffers writes until a full line is available, then emits
// prefix+line under the shared mutex, so concurrent workers' stderr
// interleaves whole lines instead of fragments.
type lineWriter struct {
	mu     *sync.Mutex
	w      io.Writer
	prefix string
	buf    []byte
}

func (lw *lineWriter) Write(p []byte) (int, error) {
	lw.buf = append(lw.buf, p...)
	for {
		nl := bytes.IndexByte(lw.buf, '\n')
		if nl < 0 {
			return len(p), nil
		}
		line := lw.buf[:nl+1]
		lw.mu.Lock()
		_, err := fmt.Fprintf(lw.w, "%s%s", lw.prefix, line)
		lw.mu.Unlock()
		lw.buf = lw.buf[nl+1:]
		if err != nil {
			return len(p), err
		}
	}
}

// flush emits any buffered unterminated tail — a worker killed
// mid-write often leaves its most important diagnostic without a
// trailing newline.
func (lw *lineWriter) flush() {
	if len(lw.buf) == 0 {
		return
	}
	lw.mu.Lock()
	fmt.Fprintf(lw.w, "%s%s\n", lw.prefix, lw.buf)
	lw.mu.Unlock()
	lw.buf = nil
}
