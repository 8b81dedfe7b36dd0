package sweepd

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wsncover/internal/experiment"
	"wsncover/internal/telemetry"
)

func TestHashHexRejectsMalformedAndTraversal(t *testing.T) {
	good := "sha256:" + strings.Repeat("ab", 32)
	if hex, err := hashHex(good); err != nil || len(hex) != 64 {
		t.Fatalf("hashHex(%q) = %q, %v", good, hex, err)
	}
	for _, bad := range []string{
		"",
		"sha256:",
		"sha256:short",
		strings.Repeat("ab", 32),             // missing prefix
		"sha256:" + strings.Repeat("AB", 32), // uppercase
		"sha256:../../../../etc/passwd00000000000000000000000000", // traversal shape
		"sha256:" + strings.Repeat("zz", 32),                      // non-hex
	} {
		if _, err := hashHex(bad); err == nil {
			t.Errorf("hashHex(%q) accepted a malformed hash", bad)
		}
	}
}

func TestStoreInstallGetResolveList(t *testing.T) {
	store, err := OpenStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	hashA := "sha256:" + strings.Repeat("aa", 32)
	hashB := "sha256:" + strings.Repeat("ab", 32)
	if _, ok := store.Get(hashA); ok {
		t.Fatal("empty store reported a hit")
	}

	m := &experiment.Manifest{Name: "x", Jobs: 1, Points: []experiment.Point{}}
	pathA, err := store.Put(hashA, m)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := store.Get(hashA); !ok || got != pathA {
		t.Fatalf("Get(%s) = %q, %v; want %q, true", hashA, got, ok, pathA)
	}
	if data, err := os.ReadFile(pathA); err != nil || string(data) != `{
  "name": "x",
  "jobs": 1,
  "workers": 0,
  "points": []
}
` {
		t.Errorf("stored manifest = %q, %v; want the indented manifest bytes", data, err)
	}
	if _, err := store.Put(hashB, m); err != nil {
		t.Fatal(err)
	}

	// Prefix resolution, git-style; ambiguous and unknown refs fail.
	if h, p, err := store.Resolve("aaaa"); err != nil || h != hashA || p != pathA {
		t.Errorf("Resolve(aaaa) = %q, %q, %v", h, p, err)
	}
	if h, _, err := store.Resolve(hashB); err != nil || h != hashB {
		t.Errorf("Resolve(full) = %q, %v", h, err)
	}
	if _, _, err := store.Resolve("a"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("Resolve(a) = %v, want ambiguous", err)
	}
	if _, _, err := store.Resolve("ffff"); err == nil {
		t.Error("Resolve of an unknown ref should fail")
	}

	// List joins the ledger's newest record per hash.
	for _, rec := range []telemetry.Record{
		{Name: "old", Mode: "sweepd", SpecHash: hashA, Status: telemetry.StatusFailed},
		{Name: "new", Mode: "sweepd", SpecHash: hashA, Status: telemetry.StatusCompleted},
	} {
		if err := telemetry.AppendRecord(store.LedgerPath(), rec); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("List() = %d entries, want 2", len(entries))
	}
	if entries[0].SpecHash != hashA || entries[1].SpecHash != hashB {
		t.Errorf("List order: %s, %s", entries[0].SpecHash, entries[1].SpecHash)
	}
	if entries[0].Record == nil || entries[0].Record.Name != "new" {
		t.Errorf("entry A record = %+v, want the newest ledger record", entries[0].Record)
	}
	if entries[1].Record != nil {
		t.Errorf("entry B record = %+v, want nil (no ledger line)", entries[1].Record)
	}
	if entries[0].Bytes == 0 {
		t.Error("entry A should report its size")
	}
}

func TestRunDirIsolatesPerCampaign(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hash := "sha256:" + strings.Repeat("cd", 32)
	dir, err := store.RunDir(hash)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(dir, filepath.Join(store.Dir(), "runs")) {
		t.Errorf("run dir %q escaped the store", dir)
	}
	if _, err := store.RunDir("sha256:nope"); err == nil {
		t.Error("RunDir must reject malformed hashes")
	}
}
