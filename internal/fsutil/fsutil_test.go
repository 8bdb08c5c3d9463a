package fsutil

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteFileAtomicCreatesAndReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifact.bin")
	if err := WriteFileAtomic(path, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "v1" {
		t.Fatalf("got %q", got)
	}
	if err := WriteFileAtomic(path, []byte("v2 longer content"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "v2 longer content" {
		t.Fatalf("replace: got %q", got)
	}
}

func TestWriteFileAtomicLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(path, bytes.Repeat([]byte("x"), 1<<16), 0o600); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Fatalf("want exactly the target file, got %d entries", len(entries))
	}
}

func TestWriteFileAtomicMissingDirFails(t *testing.T) {
	err := WriteFileAtomic(filepath.Join(t.TempDir(), "no", "such", "dir", "f"), []byte("x"), 0o644)
	if err == nil {
		t.Fatal("want error for missing directory")
	}
}

// TestWriteFileAtomicFailedRenameLeavesDestination: when the final rename
// fails (here the destination is a non-empty directory), the
// destination is untouched and the temporary file is gone.
func TestWriteFileAtomicFailedRenameLeavesDestination(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blob")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, "keep"), []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("new"), 0o644); err == nil {
		t.Fatal("want an error renaming over a non-empty directory")
	}
	if got, err := os.ReadFile(filepath.Join(path, "keep")); err != nil || string(got) != "old" {
		t.Fatalf("destination changed: %q, %v", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "blob" {
		t.Fatalf("want only the destination left, got %v", entries)
	}
}

func TestSyncDir(t *testing.T) {
	if err := SyncDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if err := SyncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("want an error syncing a missing directory")
	}
}

func TestTempTarget(t *testing.T) {
	for name, want := range map[string]string{
		".artifact.bin.tmp123": "artifact.bin",
		".ab.tmp9":             "ab",
		"artifact.bin":         "",
		".artifact.bin":        "",
		".artifact.bin.tmp":    "",
		"x.tmp1":               "",
		".tmp1":                "",
	} {
		got, ok := TempTarget(name)
		if got != want || ok != (want != "") {
			t.Errorf("TempTarget(%q) = %q, %v; want %q", name, got, ok, want)
		}
	}
}
