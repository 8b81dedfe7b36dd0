package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"wsncover/internal/experiment"
	"wsncover/internal/sim"
	"wsncover/internal/sweepd"
	"wsncover/internal/telemetry"
)

// serviceClients is the closed loop's client count; each client holds
// at most one connection.
const serviceClients = 2

// coldEvery makes every coldEvery-th request of a client, starting with
// its first, a new campaign; the rest are cache hits on campaigns it
// completed earlier. A fixed pattern keeps the cold share, which sets
// throughput, equal in every run.
const coldEvery = 4

// service is one running daemon behind its real HTTP handler on a
// loopback listener.
type service struct {
	d    *sweepd.Daemon
	st   *sweepd.Store
	srv  *http.Server
	base string
	done chan struct{}
}

func startService(dir string) (*service, error) {
	st, err := sweepd.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	d, err := sweepd.New(sweepd.Options{Store: st, Concurrency: serviceClients, QueueDepth: 4 * serviceClients})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Drain()
		return nil, err
	}
	s := &service{d: d, st: st, srv: &http.Server{Handler: d.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	probe := &http.Client{Transport: &http.Transport{DialContext: dialNoLinger}}
	resp, err := probe.Get(s.base + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	probe.CloseIdleConnections()
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// dialNoLinger dials with SO_LINGER 0, so a client that closes its
// connection first resets it and neither end is left in TIME_WAIT.
// Clients here always close first. TIME_WAIT sockets outlive the run by
// a minute, and a few thousand of them, left by earlier set-ups and
// runs, made every later loopback listen and connect cost two to three
// times the CPU.
func dialNoLinger(ctx context.Context, network, addr string) (net.Conn, error) {
	c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	return c, nil
}

// stop closes the listener and every connection, waits for Serve to
// return, then drains the daemon.
func (s *service) stop() {
	s.srv.Close()
	<-s.done
	s.d.Drain()
}

// coldSpec is a paper-figure campaign: SR and AR on 16x16 over the
// paper's spare counts, with its own base seed. It runs on one trial
// worker: the daemon runs one campaign per client at once, so the
// service never uses more trial workers than the box has CPUs.
func coldSpec(seed int64, tiny bool) sim.CampaignSpec {
	spec := sim.CampaignSpec{
		Schemes:    []sim.SchemeKind{sim.SR, sim.AR},
		Grids:      []sim.GridSize{{Cols: 16, Rows: 16}},
		Spares:     sim.PaperNs(),
		Replicates: 20,
		BaseSeed:   seed,
		Workers:    1,
	}
	if tiny {
		spec.Grids = []sim.GridSize{{Cols: 8, Rows: 8}}
		spec.Spares = []int{10, 40}
		spec.Replicates = 4
	}
	return spec
}

// reqKind classes service requests.
type reqKind int

const (
	coldReq reqKind = iota
	hitReq
)

// served is one request cycle's record.
type served struct {
	kind    reqKind
	latency time.Duration
	name    string
	hash    string
	spec    sim.CampaignSpec
	sum     [32]byte // sha256 of the manifest bytes served
	bytes   int
	id      int
	// durable is false when, on first seeing "completed", the manifest
	// or its ledger record was missing.
	durable bool
	// timings of direct calls made by the traced run
	specHash, submit, storeGet time.Duration
}

// client is one closed-loop client: its own connection, its own input
// stream, and the campaigns it completed (its cache-hit pool).
type client struct {
	id   int
	http *http.Client
	rng  *rand.Rand
	seq  int
	own  []served
	tiny bool
	// breakLedger points the durable-terminal check at a ledger that
	// does not exist, so the self-test can see the check fire.
	breakLedger bool
}

func newClient(cfg config, id int, stream uint64) *client {
	return &client{
		id: id,
		http: &http.Client{Transport: &http.Transport{
			DialContext:         dialNoLinger,
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		rng:         cfg.rng(stream + uint64(id)),
		tiny:        cfg.tiny,
		breakLedger: cfg.corrupt == chkDurable,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// next runs one request cycle, chosen from the client's own stream.
func (c *client) next(svc *service, tr *tracer) (served, error) {
	c.seq++
	if (c.seq-1)%coldEvery == 0 || len(c.own) == 0 {
		spec := coldSpec(c.rng.Int64(), c.tiny)
		return c.cold(svc, tr, spec, fmt.Sprintf("c%d-%d", c.id, c.seq))
	}
	return c.hit(svc, tr, c.own[c.rng.IntN(len(c.own))])
}

func (c *client) cold(svc *service, tr *tracer, spec sim.CampaignSpec, name string) (served, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return served{}, err
	}
	rec := served{kind: coldReq, name: name, spec: spec.Normalized()}
	id := int64(c.id)<<32 | int64(c.seq)
	root := tr.begin("sweepd.cold", id, -1)
	t0 := time.Now()
	view, err := c.submit(svc, body, name, http.StatusAccepted)
	if err != nil {
		return served{}, err
	}
	// Wait on the campaign's progress stream until the hub closes.
	resp, err := c.http.Get(svc.base + fmt.Sprintf("/api/v1/campaigns/%d/events?format=ndjson", view.ID))
	if err != nil {
		return served{}, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	var final sweepd.View
	if err := c.getJSON(svc.base+fmt.Sprintf("/api/v1/campaigns/%d", view.ID), &final); err != nil {
		return served{}, err
	}
	if final.Status != sweepd.StatusCompleted {
		return served{}, fmt.Errorf("campaign %d ended %s: %s", view.ID, final.Status, final.Error)
	}
	// First sight of "completed": the manifest must be fetchable now.
	data, code, err := c.get(svc.base + "/api/v1/manifests/" + final.SpecHash)
	rec.latency = time.Since(t0)
	tr.end(root, 0)
	if err != nil {
		return served{}, err
	}
	rec.hash, rec.id = final.SpecHash, view.ID
	ledger := svc.st.LedgerPath()
	if c.breakLedger {
		ledger = filepath.Join(svc.st.Dir(), "no-ledger.ndjson")
	}
	rec.durable = code == http.StatusOK && ledgerHas(ledger, final.SpecHash)
	rec.sum, rec.bytes = sha256.Sum256(data), len(data)
	if tr != nil {
		t1 := time.Now()
		if _, err := telemetry.SpecHash(rec.spec); err != nil {
			return served{}, err
		}
		rec.specHash = time.Since(t1)
		tr.record("telemetry.spec_hash", id, root, t1, rec.specHash, 0)
	}
	if code == http.StatusOK {
		c.own = append(c.own, rec)
	}
	return rec, nil
}

func (c *client) hit(svc *service, tr *tracer, of served) (served, error) {
	body, err := json.Marshal(of.spec)
	if err != nil {
		return served{}, err
	}
	rec := served{kind: hitReq, name: of.name, hash: of.hash, spec: of.spec, durable: true}
	id := int64(c.id)<<32 | int64(c.seq)
	root := tr.begin("sweepd.hit", id, -1)
	t0 := time.Now()
	view, err := c.submit(svc, body, of.name, http.StatusOK)
	if err != nil {
		return served{}, err
	}
	if view.Status != sweepd.StatusCached || view.SpecHash != of.hash {
		return served{}, fmt.Errorf("duplicate of %s answered %s (%s)", of.hash, view.Status, view.SpecHash)
	}
	data, code, err := c.get(svc.base + "/api/v1/manifests/" + of.hash)
	rec.latency = time.Since(t0)
	tr.end(root, 0)
	if err != nil {
		return served{}, err
	}
	if code != http.StatusOK {
		return served{}, fmt.Errorf("cached manifest %s: HTTP %d", of.hash, code)
	}
	rec.sum, rec.bytes, rec.id = sha256.Sum256(data), len(data), view.ID
	if tr != nil {
		// The same work, called directly: hashing, the daemon's
		// submission path and the store lookup.
		t1 := time.Now()
		if _, err := telemetry.SpecHash(of.spec); err != nil {
			return served{}, err
		}
		rec.specHash = time.Since(t1)
		tr.record("telemetry.spec_hash", id, root, t1, rec.specHash, 0)
		t1 = time.Now()
		if _, _, err := svc.d.Submit(body, of.name); err != nil {
			return served{}, err
		}
		rec.submit = time.Since(t1)
		tr.record("sweepd.submit", id, root, t1, rec.submit, 0)
		t1 = time.Now()
		if _, _, err := svc.st.Resolve(of.hash); err != nil {
			return served{}, err
		}
		if _, ok := svc.st.Get(of.hash); !ok {
			return served{}, fmt.Errorf("store lost %s", of.hash)
		}
		rec.storeGet = time.Since(t1)
		tr.record("sweepd.store_get", id, root, t1, rec.storeGet, 0)
	}
	return rec, nil
}

func (c *client) submit(svc *service, body []byte, name string, want int) (sweepd.View, error) {
	resp, err := c.http.Post(svc.base+"/api/v1/campaigns?name="+name, "application/json", bytes.NewReader(body))
	if err != nil {
		return sweepd.View{}, err
	}
	defer resp.Body.Close()
	var v sweepd.View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return sweepd.View{}, err
	}
	if resp.StatusCode != want {
		return sweepd.View{}, fmt.Errorf("submit %s: HTTP %d, want %d", name, resp.StatusCode, want)
	}
	return v, nil
}

func (c *client) get(url string) ([]byte, int, error) {
	resp, err := c.http.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

func (c *client) getJSON(url string, v any) error {
	data, code, err := c.get(url)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, code)
	}
	return json.Unmarshal(data, v)
}

// ledgerHas reports whether the ledger holds a completed record for
// hash.
func ledgerHas(path, hash string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.Contains(line, []byte(hash)) {
			continue
		}
		var r telemetry.Record
		if json.Unmarshal(line, &r) == nil && r.SpecHash == hash && r.Status == sweepd.StatusCompleted {
			return true
		}
	}
	return false
}

// serviceWindow drives the closed loop until the window ends and
// returns every request cycle in client order. Clients run whole rounds
// of coldEvery requests, so the cold share, which sets throughput, is
// the same in every run.
func serviceWindow(svc *service, clients []*client, tr *tracer, window time.Duration) ([]served, usage, error) {
	out := make([][]served, len(clients))
	errs := make([]error, len(clients))
	m := startMeter()
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				for range coldEvery {
					rec, err := c.next(svc, tr)
					if err != nil {
						errs[i] = err
						return
					}
					out[i] = append(out[i], rec)
				}
			}
		}()
	}
	wg.Wait()
	use := m.stop()
	if err := errors.Join(errs...); err != nil {
		return nil, usage{}, err
	}
	var all []served
	for _, o := range out {
		all = append(all, o...)
	}
	return all, use, nil
}

func latencies(recs []served, kind reqKind) []time.Duration {
	var out []time.Duration
	for _, r := range recs {
		if kind < 0 || r.kind == kind {
			out = append(out, r.latency)
		}
	}
	return out
}

// checkRecorded verifies, once the daemon has drained, that every cold
// submission's manifest is in the store and its completed record is in
// the ledger.
func checkRecorded(cfg config, st *sweepd.Store, recs []served, rep *report) {
	ledger := st.LedgerPath()
	if cfg.corrupt == chkLedger {
		ledger = filepath.Join(st.Dir(), "no-ledger.ndjson")
	}
	for _, r := range recs {
		if r.kind != coldReq {
			continue
		}
		_, stored := st.Get(r.hash)
		rep.check(chkLedger, stored && ledgerHas(ledger, r.hash),
			fmt.Sprintf("campaign %d (%s) has no stored manifest or completed ledger record after the daemon drained", r.id, r.hash))
	}
}

// serviceSetupBatch is the number of daemon starts in one timed batch.
const serviceSetupBatch = 32

// serviceSetup times daemon restarts on one store — store open, daemon
// start, listener and first healthz, what a restarted sweepd pays — and
// keeps the last daemon running. The first, untimed, start creates the
// store.
func serviceSetup(dir string) (*service, []time.Duration, error) {
	var svc *service
	setup, err := timeSetup(serviceSetupBatch, func() error {
		var err error
		svc, err = startService(dir)
		return err
	}, func() { svc.stop() })
	if err != nil {
		if svc != nil {
			svc.stop()
		}
		return nil, nil, err
	}
	return svc, setup, nil
}

// checkServed verifies what the clients were served: whether every cold
// was durable on first sight of "completed", every hit's bytes equal the
// bytes its cold submission fetched, and a seed-chosen sample of cold
// manifests equals the in-process sim.RunCampaign manifest for the same
// spec. It returns the reference campaign times and the count of colds
// that were not durable.
func checkServed(cfg config, rng *rand.Rand, recs []served, rep *report) ([]time.Duration, int, error) {
	coldSum := make(map[string][32]byte)
	var colds []int
	notDurable := 0
	for i, r := range recs {
		if r.kind == coldReq {
			coldSum[r.hash] = r.sum
			colds = append(colds, i)
			if !r.durable {
				notDurable++
			}
			rep.check(chkDurable, r.durable,
				fmt.Sprintf("campaign %d (%s) was reported completed before its manifest and ledger record were durable", r.id, r.hash))
		}
	}
	for _, r := range recs {
		if r.kind == hitReq {
			sum := r.sum
			if cfg.corrupt == chkHit {
				sum[0]++
			}
			rep.check(chkHit, sum == coldSum[r.hash], fmt.Sprintf("cache hit %s served bytes unlike its cold submission", r.hash))
		}
	}
	// The references run serviceClients at a time, each on the spec's
	// own worker count, as the daemon runs the clients' campaigns, so
	// their times compare with sweepd.run_ms.
	picks := pickIndexes(rng, len(colds), 6)
	times := make([]time.Duration, len(picks))
	sums := make([][32]byte, len(picks))
	errs := make([]error, len(picks))
	for lo := 0; lo < len(picks); lo += serviceClients {
		var wg sync.WaitGroup
		for k := lo; k < min(lo+serviceClients, len(picks)); k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sums[k], times[k], errs[k] = referenceManifest(recs[colds[picks[k]]])
			}()
		}
		wg.Wait()
	}
	if err := errors.Join(errs...); err != nil {
		return nil, 0, err
	}
	for k, i := range picks {
		r := recs[colds[i]]
		want := sums[k]
		if cfg.corrupt == chkServed {
			want[0]++
		}
		rep.check(chkServed, r.sum == want, fmt.Sprintf("served manifest %s differs from the in-process campaign", r.hash))
	}
	return times, notDurable, nil
}

// referenceManifest runs a cold request's spec in-process and returns
// the hash of its manifest bytes and the campaign's run time.
func referenceManifest(r served) ([32]byte, time.Duration, error) {
	t0 := time.Now()
	pts, err := sim.RunCampaign(context.Background(), r.spec, experiment.Options{Workers: r.spec.Workers})
	if err != nil {
		return [32]byte{}, 0, err
	}
	d := time.Since(t0)
	m, err := experiment.NewManifest(r.name, r.spec, r.spec.NumJobs(), r.spec.Workers, pts)
	if err != nil {
		return [32]byte{}, 0, err
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		return [32]byte{}, 0, err
	}
	return sha256.Sum256(buf.Bytes()), d, nil
}

// runService: an in-process sweepd daemon behind its HTTP handler,
// driven by a closed loop of serviceClients clients that mix new
// paper-figure campaigns with cache hits on their own earlier ones.
// An op is one request cycle.
func runService(cfg config) (*report, error) {
	rep := &report{}
	rng := cfg.rng(1)
	window := cfg.window
	if cfg.trace {
		window /= 2
	}
	svc, setup, err := serviceSetup(filepath.Join(cfg.work, "untraced"))
	if err != nil {
		return nil, err
	}
	clients := make([]*client, serviceClients)
	for i := range clients {
		clients[i] = newClient(cfg, i, 100)
	}
	recs, use, err := serviceWindow(svc, clients, nil, window)
	for _, c := range clients {
		c.close()
	}
	svc.stop()
	if err != nil {
		return nil, err
	}
	checkRecorded(cfg, svc.st, recs, rep)
	rep.attempted = len(recs)
	ex := e2e{setup: setup, ops: len(recs), latencies: latencies(recs, -1), use: use}
	refTimes, notDurable, err := checkServed(cfg, rng, recs, rep)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		rep.addE2E(ex)
		return rep, nil
	}

	// Traced half: a fresh daemon and fresh clients on other streams.
	tr := newTracer()
	tsvc, tsetup, err := serviceSetup(filepath.Join(cfg.work, "traced"))
	if err != nil {
		return nil, err
	}
	tclients := make([]*client, serviceClients)
	for i := range tclients {
		tclients[i] = newClient(cfg, i, 200)
	}
	trecs, tuse, err := serviceWindow(tsvc, tclients, tr, window)
	for _, c := range tclients {
		c.close()
	}
	views := tsvc.d.Campaigns()
	entries, _ := os.ReadDir(filepath.Join(tsvc.st.Dir(), "manifests"))
	tsvc.stop()
	if err != nil {
		return nil, err
	}
	checkRecorded(cfg, tsvc.st, trecs, rep)
	rep.attempted += len(trecs)
	tex := e2e{setup: tsetup, ops: len(trecs), latencies: latencies(trecs, -1), use: tuse}
	tRefTimes, tNotDurable, err := checkServed(cfg, rng, trecs, rep)
	if err != nil {
		return nil, err
	}

	setLayerDefaults(rep)
	var specHash, submit, storeGet []time.Duration
	bytesServed, hits := 0, 0
	for _, r := range trecs {
		specHash = append(specHash, r.specHash)
		bytesServed += r.bytes
		if r.kind == hitReq {
			hits++
			submit = append(submit, r.submit)
			storeGet = append(storeGet, r.storeGet)
		}
	}
	var wait, run []time.Duration
	for _, v := range views {
		if v.Status == sweepd.StatusCompleted && !v.Started.IsZero() {
			wait = append(wait, v.Started.Sub(v.Submitted))
			run = append(run, v.Finished.Sub(v.Started))
		}
	}
	hitLat := latencies(recs, hitReq)
	campaign := quantile(append(refTimes, tRefTimes...), 0.5)
	rep.set("telemetry.spec_hash_us", "us", us(quantile(specHash, 0.5)))
	rep.set("sweepd.submit_us", "us", us(quantile(submit, 0.5)))
	rep.set("sweepd.store_get_us", "us", us(quantile(storeGet, 0.5)))
	rep.set("sweepd.http_us", "us", us(quantile(hitLat, 0.5)-quantile(submit, 0.5)-quantile(storeGet, 0.5)))
	rep.set("sweepd.store_entries", "count", float64(len(entries)))
	rep.set("sweepd.manifest_bytes", "B", float64(bytesServed)/float64(len(trecs)))
	rep.set("sweepd.queue_wait_ms", "ms", ms(quantile(wait, 0.5)))
	rep.set("sweepd.run_ms", "ms", ms(quantile(run, 0.5)))
	rep.set("experiment.campaign_ms", "ms", ms(campaign))
	rep.set("sweepd.persist_overhead_ms", "ms", ms(quantile(run, 0.5)-campaign))
	rep.set("sweepd.cache_hit_ratio", "ratio", float64(hits)/float64(len(trecs)))
	rep.set("sweepd.terminal_not_durable", "count", float64(notDurable+tNotDurable))
	rep.set("sweepd.hit_p50_ms", "ms", ms(quantile(hitLat, 0.5)))
	rep.set("sweepd.hit_p90_ms", "ms", ms(quantile(hitLat, 0.9)))
	rep.set("sweepd.cold_p50_ms", "ms", ms(quantile(latencies(recs, coldReq), 0.5)))
	rep.set("sweepd.cold_p90_ms", "ms", ms(quantile(latencies(recs, coldReq), 0.9)))
	agg, err := aggregateCost(trecs)
	if err != nil {
		return nil, err
	}
	rep.set("experiment.aggregate_us_per_trial", "us", agg)
	rep.addRuntime(tuse, len(trecs))
	rep.addOverhead(ex, tex)
	tr.layerShares(rep, layers)
	if path, err := tr.write(cfg.traceDir(), fmt.Sprintf("seed-%d.ndjson", cfg.seed)); err == nil {
		fmt.Fprintln(stderr, "perfbench: spans written to", path)
	}
	return rep, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// aggregateCost times the engine's aggregation of one cold campaign —
// Accumulator.Add over its samples plus NewManifest — per trial.
func aggregateCost(recs []served) (float64, error) {
	for _, r := range recs {
		if r.kind != coldReq {
			continue
		}
		samples, err := sim.RunCampaignSamples(context.Background(), r.spec, experiment.Options{Workers: refWorkers})
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		acc := experiment.NewAccumulator()
		for _, s := range samples {
			acc.Add(s)
		}
		if _, err := experiment.NewManifest(r.name, r.spec, len(samples), r.spec.Workers, acc.Points()); err != nil {
			return 0, err
		}
		return us(time.Since(t0)) / float64(len(samples)), nil
	}
	return 0, nil
}
