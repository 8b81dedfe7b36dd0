package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Manifest is the JSON artifact describing one aggregated campaign: the
// spec that produced it (opaque to this package), the job accounting,
// and every aggregated point. Map keys marshal sorted and points are
// pre-sorted by Aggregate, so the serialized form is deterministic.
type Manifest struct {
	// Name labels the campaign (used as the artifact base name).
	Name string `json:"name"`
	// Spec echoes the caller's sweep specification verbatim.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Jobs is the number of trials executed; Workers the pool size used.
	Jobs    int `json:"jobs"`
	Workers int `json:"workers"`
	// Points holds the aggregated results.
	Points []Point `json:"points"`
}

// NewManifest bundles aggregated points with a marshalled copy of spec.
func NewManifest(name string, spec any, jobs, workers int, points []Point) (*Manifest, error) {
	m := &Manifest{Name: name, Jobs: jobs, Workers: workers, Points: points}
	if spec != nil {
		raw, err := json.Marshal(spec)
		if err != nil {
			return nil, fmt.Errorf("experiment: marshal spec: %w", err)
		}
		m.Spec = raw
	}
	return m, nil
}

// Write serializes the manifest as indented JSON.
func (m *Manifest) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return fmt.Errorf("experiment: encode manifest: %w", err)
	}
	return nil
}

// Save writes the manifest to dir/<name>.json, creating dir when needed,
// and returns the written path. The write is atomic — a uniquely named
// temp file in dir, renamed over the target — so a reader (or a process
// killed mid-save) never observes a torn manifest: the path holds either
// the previous complete manifest or the new one, nothing in between.
func (m *Manifest) Save(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("experiment: %w", err)
	}
	path := filepath.Join(dir, m.Name+".json")
	return path, m.WriteAtomic(path)
}

// WriteAtomic atomically replaces path with the serialized manifest.
// Concurrent writers of identical content — duplicate attempts of a
// deterministic shard — are safe: each rename installs a complete
// manifest.
func (m *Manifest) WriteAtomic(path string) error { return WriteFileAtomic(path, m.Write) }

// WriteFileAtomic replaces path with what write produces, via a
// uniquely named temp file in the same directory renamed over the
// target, so a reader (or a writer killed mid-write) sees the old
// content or the new, never a prefix. The file is world-readable
// (0644), like os.WriteFile's usual mode.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("experiment: %w", err)
	}
	tmp := f.Name()
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("experiment: %w", err)
	}
	if err := os.Chmod(tmp, 0o644); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("experiment: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("experiment: %w", err)
	}
	return nil
}
