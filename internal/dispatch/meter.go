package dispatch

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"wsncover/internal/telemetry"
)

// meterThrottle is the minimum interval between non-final redraws; it
// keeps a meter from ever slowing the worker pool or a fleet's event
// stream.
const meterThrottle = 200 * time.Millisecond

// Meter renders completed/total with the trial rate and an ETA on one
// self-overwriting line; on wide campaigns (more than one curve) it adds
// a per-group breakdown — completed groups out of total plus the cell
// currently being filled — so a day-long multi-dimensional run shows
// where it is, not just how much is left. It is the progress display of
// a single campaign process (cmd/sweep without -dispatch); fleets of
// shard workers aggregate into a FleetMeter instead.
//
// JobDone is called from the engine's serialized sink, so no locking is
// needed. The total must be the count of trials the run will actually
// execute — after shard and resume filtering — never the full campaign's
// replicate range; cmd/sweep sizes it with CampaignSpec.ExecutedJobs and
// the regression tests pin that a sharded meter renders the shard's own
// totals.
type Meter struct {
	w     io.Writer
	now   func() time.Time
	start time.Time
	last  time.Time

	done  int
	total int

	// Per-group accounting, enabled when the campaign has > 1 group.
	groupTotal map[string]int
	groupDone  map[string]int
	groupsDone int
	cur        string
}

// NewMeter sizes the meter for total trials; groupTotal (the per-group
// trial counts of the jobs that will actually run) enables the breakdown
// and may be nil for single-group campaigns.
func NewMeter(w io.Writer, total int, groupTotal map[string]int) *Meter {
	m := &Meter{w: w, now: time.Now, total: total}
	m.start = m.now()
	m.last = m.start
	if len(groupTotal) > 1 {
		m.groupTotal = groupTotal
		m.groupDone = make(map[string]int, len(groupTotal))
	}
	return m
}

// SetClock replaces the meter's time source (tests); call it before the
// first JobDone. It resets the start and throttle anchors through the
// new clock.
func (m *Meter) SetClock(now func() time.Time) {
	m.now = now
	m.start = now()
	m.last = m.start
}

// Done returns the number of completed trials recorded so far.
func (m *Meter) Done() int { return m.done }

// JobDone records one finished trial of the given group and redraws.
func (m *Meter) JobDone(group string) {
	m.done++
	if m.groupTotal != nil {
		m.groupDone[group]++
		m.cur = group
		if m.groupDone[group] == m.groupTotal[group] {
			m.groupsDone++
		}
	}
	m.report()
}

func (m *Meter) report() {
	done, total := m.done, m.total
	now := m.now()
	if done < total && now.Sub(m.last) < meterThrottle {
		return
	}
	m.last = now
	elapsed := now.Sub(m.start).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(done) / elapsed
	}
	groups := ""
	if m.groupTotal != nil {
		groups = fmt.Sprintf("  groups %d/%d", m.groupsDone, len(m.groupTotal))
		if m.cur != "" && done < total {
			groups += fmt.Sprintf("  [%s %d/%d]", m.cur, m.groupDone[m.cur], m.groupTotal[m.cur])
		}
	}
	if done == total {
		fmt.Fprintf(m.w, "\r%d/%d trials  %.0f trials/s%s  in %s   \n",
			done, total, rate, groups, FormatETA(now.Sub(m.start)))
		return
	}
	eta := "--"
	if rate > 0 {
		eta = FormatETA(time.Duration(float64(total-done) / rate * float64(time.Second)))
	}
	fmt.Fprintf(m.w, "\r%d/%d trials  %.0f trials/s  ETA %s%s   ", done, total, rate, eta, groups)
}

// FormatETA renders a duration as s / m+s / h+m. The duration is rounded
// to whole seconds first so boundary values roll into the larger unit
// ("60s" never appears; 59.7s renders as 1m00s).
func FormatETA(d time.Duration) string {
	if d < time.Second {
		return "<1s"
	}
	s := int(d.Seconds() + 0.5)
	switch {
	case s < 60:
		return fmt.Sprintf("%ds", s)
	case s < 3600:
		return fmt.Sprintf("%dm%02ds", s/60, s%60)
	default:
		return fmt.Sprintf("%dh%02dm", s/3600, s/60%60)
	}
}

// FleetMeter folds the progress streams of every shard worker into one
// self-overwriting fleet line: aggregate done/total, trials/s, ETA, the
// live slot count, and a per-shard state list —
//
//	fleet 34/160 trials  12 trials/s  ETA 11s  slots 3/4  shards [1:ok 2:42%x2 3:retry2 4:wait]
//
// Shards render as ok (finished), FAIL (exhausted retries), wait (not
// yet started), or a completion percentage while a lease is live —
// suffixed with retryN after relaunches, x2 while a speculative
// duplicate races a straggler, and ~age when the newest heartbeat is
// stale enough to matter (10s+). "slots a/b" appears once a retired
// slot shrinks the fleet. Update is throttled like Meter; the final
// update (every shard terminal) always renders and reports elapsed
// time.
type FleetMeter struct {
	w     io.Writer
	now   func() time.Time
	start time.Time
	last  time.Time
}

// NewFleetMeter returns a fleet meter writing to w.
func NewFleetMeter(w io.Writer) *FleetMeter {
	f := &FleetMeter{w: w, now: time.Now}
	f.start = f.now()
	f.last = f.start
	return f
}

// SetClock replaces the time source (tests); call before the first
// Update.
func (f *FleetMeter) SetClock(now func() time.Time) {
	f.now = now
	f.start = now()
	f.last = f.start
}

// Update redraws the fleet line from a snapshot. Snapshots arrive from
// the dispatcher's serialized progress callback, so no locking is
// needed.
func (f *FleetMeter) Update(snap FleetSnapshot) {
	final := snap.Terminal()
	now := f.now()
	if !final && now.Sub(f.last) < meterThrottle {
		return
	}
	f.last = now
	agg := snap.Fleet
	elapsed := now.Sub(f.start).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(agg.Done) / elapsed
	}
	slots := ""
	if snap.Retired > 0 {
		slots = fmt.Sprintf("  slots %d/%d", snap.Slots-snap.Retired, snap.Slots)
	}
	if final {
		fmt.Fprintf(f.w, "\rfleet %d/%d trials  %.0f trials/s  in %s%s  shards %s   \n",
			agg.Done, agg.Total, rate, FormatETA(now.Sub(f.start)), slots, shardList(snap.Shards, now))
		return
	}
	eta := "--"
	if rate > 0 && agg.Total > agg.Done {
		eta = FormatETA(time.Duration(float64(agg.Total-agg.Done) / rate * float64(time.Second)))
	}
	fmt.Fprintf(f.w, "\rfleet %d/%d trials  %.0f trials/s  ETA %s%s  shards %s   ",
		agg.Done, agg.Total, rate, eta, slots, shardList(snap.Shards, now))
}

// staleBeat is the heartbeat age past which a running shard's cell
// shows it: young enough to never clutter a healthy fleet, old enough
// to finger the straggler long before its lease expires.
const staleBeat = 10 * time.Second

// shardList renders the compact per-shard state vector in shard order.
func shardList(shards []ShardStatus, now time.Time) string {
	ordered := make([]ShardStatus, len(shards))
	copy(ordered, shards)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Shard < ordered[j].Shard })
	parts := make([]string, 0, len(ordered))
	for _, s := range ordered {
		parts = append(parts, fmt.Sprintf("%d:%s", s.Shard, shardCell(s, now)))
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func shardCell(s ShardStatus, now time.Time) string {
	switch s.State {
	case ShardDone:
		return "ok"
	case ShardFailed:
		return "FAIL"
	case ShardPending:
		if s.Attempts > 0 {
			return fmt.Sprintf("retry%d", s.Attempts)
		}
		return "wait"
	}
	cell := fmt.Sprintf("%.0f%%", 100*s.Progress.Fraction())
	if s.Attempts > 1 {
		cell += fmt.Sprintf(" retry%d", s.Attempts)
	}
	if s.Leases > 1 {
		cell += fmt.Sprintf("x%d", s.Leases)
	}
	if !s.LastBeat.IsZero() {
		if age := now.Sub(s.LastBeat); age >= staleBeat {
			cell += "~" + FormatETA(age)
		}
	}
	return cell
}

// Publish returns an Options.OnProgress observer that feeds the fleet's
// snapshots to a telemetry dashboard publisher, throttled by the
// publisher's cadence; terminal snapshots always go out. The wire
// conversion lives here because telemetry must not import dispatch.
func Publish(pub *telemetry.Publisher) func(FleetSnapshot) {
	return func(s FleetSnapshot) {
		final := s.Terminal()
		if !pub.Due(final) {
			return
		}
		pub.Publish(s.Fleet, shardViews(s.Shards), groupViews(s.Groups), final)
	}
}

func shardViews(shards []ShardStatus) []telemetry.ShardView {
	now := time.Now()
	out := make([]telemetry.ShardView, len(shards))
	for i, s := range shards {
		out[i] = telemetry.ShardView{
			Shard:    s.Shard,
			State:    s.State.String(),
			Done:     s.Progress.Done,
			Total:    s.Progress.Total,
			Attempts: s.Attempts,
			Slot:     s.Slot,
			Leases:   s.Leases,
			BeatAgeS: -1,
		}
		if s.Attempts > 1 {
			out[i].Retries = s.Attempts - 1
		}
		if !s.LastBeat.IsZero() {
			out[i].BeatAgeS = now.Sub(s.LastBeat).Seconds()
		}
	}
	return out
}

func groupViews(groups []GroupProgress) []telemetry.GroupView {
	out := make([]telemetry.GroupView, len(groups))
	for i, g := range groups {
		out[i] = telemetry.GroupView{Group: g.Group, Done: g.Done, Total: g.Total}
	}
	return out
}
