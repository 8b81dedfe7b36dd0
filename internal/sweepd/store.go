// Package sweepd is the always-on campaign service: a daemon that
// accepts campaign specs over HTTP, executes them through the same
// engine cmd/sweep drives, and serves the resulting manifests from a
// content-addressed store keyed by telemetry.SpecHash. Determinism is
// what makes the store a cache: the spec hash ignores execution-only
// fields (worker count, shard layout), and a campaign's manifest is
// byte-identical however it was parallelized, so one stored manifest
// answers every future submission of the same science.
//
// The package splits along the same seams as the rest of the repo:
// store.go is the artifact store, sweepd.go the daemon (submission,
// dedupe, the bounded FIFO job queue, drain), run.go the campaign
// runner (in-process engine or a dispatch fleet), and server.go the
// HTTP surface. cmd/sweepd wires it to flags and signals.
package sweepd

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"wsncover/internal/experiment"
	"wsncover/internal/telemetry"
)

// Store is a content-addressed campaign-manifest store rooted at one
// directory:
//
//	<dir>/manifests/sha256-<hex>.json   completed campaign manifests
//	<dir>/runs/<hex>/                   per-campaign working directories
//	<dir>/ledger.ndjson                 the run ledger (telemetry.Record)
//
// Keys are telemetry.SpecHash values ("sha256:<64 hex>"). Only full,
// unsharded campaign manifests are stored — Daemon.Submit enforces
// that with sim.CampaignSpec.ValidateUnsharded, because the hash
// deliberately ignores shard layout and a partial manifest stored
// under the full campaign's key would poison every later cache hit.
type Store struct {
	dir string
}

// OpenStore opens (creating if needed) the store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, "manifests"), filepath.Join(dir, "runs")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("sweepd: store: %w", err)
		}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// LedgerPath is the store's run-ledger file (telemetry NDJSON records).
func (s *Store) LedgerPath() string { return filepath.Join(s.dir, "ledger.ndjson") }

// RunDir returns (creating if needed) the working directory for the
// campaign with the given spec hash — checkpoints (and a fleet's shard
// artifacts) live here, outside the manifests/ namespace, so a crashed
// run never pollutes the store with a partial artifact.
func (s *Store) RunDir(hash string) (string, error) {
	hex, err := hashHex(hash)
	if err != nil {
		return "", err
	}
	dir := filepath.Join(s.dir, "runs", hex)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("sweepd: store: %w", err)
	}
	return dir, nil
}

// hashHex validates a spec hash and returns its hex digest — the only
// component that ever reaches a file name, so a malicious "hash" can
// not traverse out of the store.
func hashHex(hash string) (string, error) {
	hex, ok := strings.CutPrefix(hash, "sha256:")
	if !ok || len(hex) != 64 {
		return "", fmt.Errorf("sweepd: malformed spec hash %q (want sha256:<64 hex>)", hash)
	}
	for _, c := range hex {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", fmt.Errorf("sweepd: malformed spec hash %q (want sha256:<64 hex>)", hash)
		}
	}
	return hex, nil
}

// manifestPath maps a validated spec hash to its store location.
func (s *Store) manifestPath(hex string) string {
	return filepath.Join(s.dir, "manifests", "sha256-"+hex+".json")
}

// Get returns the stored manifest path for hash and whether it exists.
func (s *Store) Get(hash string) (string, bool) {
	hex, err := hashHex(hash)
	if err != nil {
		return "", false
	}
	path := s.manifestPath(hex)
	if _, err := os.Stat(path); err != nil {
		return "", false
	}
	return path, true
}

// Put writes a completed campaign manifest into the store under hash,
// atomically, and returns the stored path. Putting the same hash twice
// is fine: determinism guarantees the bytes match, and the rename just
// replaces like with like.
func (s *Store) Put(hash string, m *experiment.Manifest) (string, error) {
	hex, err := hashHex(hash)
	if err != nil {
		return "", err
	}
	dst := s.manifestPath(hex)
	if err := m.WriteAtomic(dst); err != nil {
		return "", fmt.Errorf("sweepd: store put: %w", err)
	}
	return dst, nil
}

// Resolve finds the unique stored manifest whose hash starts with ref
// (with or without the "sha256:" prefix), git-style. It returns the
// full hash and path; an unknown or ambiguous ref errors.
func (s *Store) Resolve(ref string) (hash, path string, err error) {
	prefix := strings.TrimPrefix(strings.TrimSpace(ref), "sha256:")
	if prefix == "" {
		return "", "", fmt.Errorf("sweepd: empty manifest ref")
	}
	entries, err := s.List()
	if err != nil {
		return "", "", err
	}
	var matches []Entry
	for _, e := range entries {
		if strings.HasPrefix(strings.TrimPrefix(e.SpecHash, "sha256:"), prefix) {
			matches = append(matches, e)
		}
	}
	switch len(matches) {
	case 0:
		return "", "", fmt.Errorf("sweepd: no stored manifest matches %q", ref)
	case 1:
		return matches[0].SpecHash, matches[0].Path, nil
	}
	return "", "", fmt.Errorf("sweepd: ref %q is ambiguous (%d matches)", ref, len(matches))
}

// Entry is one stored manifest joined with its newest ledger record
// (nil when the ledger has none — e.g. a manifest installed by hand).
type Entry struct {
	SpecHash string            `json:"spec_hash"`
	Path     string            `json:"path"`
	Bytes    int64             `json:"bytes"`
	Record   *telemetry.Record `json:"record,omitempty"`
}

// List scans the store's manifests, sorted by hash, each joined with
// the latest ledger record carrying its spec hash.
func (s *Store) List() ([]Entry, error) {
	names, err := os.ReadDir(filepath.Join(s.dir, "manifests"))
	if err != nil {
		return nil, fmt.Errorf("sweepd: store: %w", err)
	}
	latest := make(map[string]*telemetry.Record)
	if recs, err := telemetry.ReadLedger(s.LedgerPath()); err == nil {
		for i := range recs {
			latest[recs[i].SpecHash] = &recs[i]
		}
	}
	var out []Entry
	for _, de := range names {
		name := de.Name()
		hex, ok := strings.CutPrefix(name, "sha256-")
		hex, ok2 := strings.CutSuffix(hex, ".json")
		if !ok || !ok2 || len(hex) != 64 {
			continue
		}
		e := Entry{SpecHash: "sha256:" + hex, Path: s.manifestPath(hex)}
		if info, err := de.Info(); err == nil {
			e.Bytes = info.Size()
		}
		e.Record = latest[e.SpecHash]
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SpecHash < out[j].SpecHash })
	return out, nil
}
