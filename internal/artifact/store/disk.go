package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/artifact"
	"repro/internal/fsutil"
)

// Disk is the durable store: one file per artifact under
// root/<hh>/<hash>, where <hh> is the first hash byte in hex — 256
// shards keep any one directory small at fleet-scale artifact counts.
// Writes are atomic (temp file + rename into the shard), so concurrent
// Puts of the same hash are safe (they race to rename identical bytes
// onto one name) and a crashed writer leaves no torn blob behind; GC
// removes the temp file such a writer leaves.
type Disk struct {
	counters
	root string

	// occupancy cache, initialised by a walk at construction and kept
	// current by Put/Delete. mu also serialises the exists-check in Put
	// against Delete, so the dedup fast path cannot lose bytes, and Put's
	// write and rename against GC, so a temp file GC sees under mu is
	// debris.
	mu      sync.Mutex
	objects int64
	bytes   int64
}

// NewDisk opens (creating if needed) a disk store rooted at dir.
func NewDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &Disk{root: dir}
	err := filepath.WalkDir(dir, func(path string, entry fs.DirEntry, err error) error {
		if err != nil || entry.IsDir() {
			return err
		}
		if _, herr := artifact.ParseHash(entry.Name()); herr != nil {
			return nil // stray file (e.g. an orphaned temp); not ours to count
		}
		info, err := entry.Info()
		if err != nil {
			return err
		}
		d.objects++
		d.bytes += info.Size()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", dir, err)
	}
	return d, nil
}

// Root returns the store's root directory.
func (d *Disk) Root() string { return d.root }

// path maps a hash to its sharded file path.
func (d *Disk) path(h artifact.Hash) string {
	hex := h.String()
	return filepath.Join(d.root, hex[:2], hex)
}

// Put implements Store.
func (d *Disk) Put(data []byte) (artifact.Hash, error) {
	h := artifact.Sum(data)
	d.puts.Add(1)
	path := d.path(h)
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, err := os.Stat(path); err == nil {
		d.putDedups.Add(1)
		return h, nil
	}
	switch err := os.Mkdir(filepath.Dir(path), 0o755); {
	case err == nil:
		// A new shard directory is durable only once the root is synced.
		if err := fsutil.SyncDir(d.root); err != nil {
			return h, err
		}
	case !errors.Is(err, fs.ErrExist):
		return h, err
	}
	if err := fsutil.WriteFileAtomic(path, data, 0o644); err != nil {
		return h, err
	}
	d.objects++
	d.bytes += int64(len(data))
	return h, nil
}

// Get implements Store.
func (d *Disk) Get(h artifact.Hash) ([]byte, error) {
	d.gets.Add(1)
	data, err := os.ReadFile(d.path(h))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, err
	}
	if err := verify(h, data); err != nil {
		d.corrupt.Add(1)
		return nil, err
	}
	d.hits.Add(1)
	return data, nil
}

// Has implements Store.
func (d *Disk) Has(h artifact.Hash) (bool, error) {
	_, err := os.Stat(d.path(h))
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// Delete implements Store.
func (d *Disk) Delete(h artifact.Hash) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, err := d.removeLocked(h)
	return err
}

// removeLocked deletes h's blob and its share of the occupancy cache,
// returning its size; the caller holds mu.
func (d *Disk) removeLocked(h artifact.Hash) (int64, error) {
	path := d.path(h)
	info, err := os.Stat(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, ErrNotFound
	}
	if err != nil {
		return 0, err
	}
	if err := os.Remove(path); err != nil {
		return 0, err
	}
	d.objects--
	d.bytes -= info.Size()
	return info.Size(), nil
}

// List implements Store.
func (d *Disk) List() ([]artifact.Hash, error) {
	hashes, _, err := d.scan()
	return hashes, err
}

// scan walks the shards for the stored hashes and the paths of the temp
// files WriteFileAtomic leaves when its writer dies before the rename.
func (d *Disk) scan() (hashes []artifact.Hash, temps []string, err error) {
	err = filepath.WalkDir(d.root, func(path string, entry fs.DirEntry, err error) error {
		if err != nil || entry.IsDir() {
			return err
		}
		if h, herr := artifact.ParseHash(entry.Name()); herr == nil {
			hashes = append(hashes, h)
		} else if target, ok := fsutil.TempTarget(entry.Name()); ok {
			if _, herr := artifact.ParseHash(target); herr == nil {
				temps = append(temps, path)
			}
		}
		return nil
	})
	return hashes, temps, err
}

// GC implements Store: walks the shards and deletes every blob the live
// predicate does not claim. Each candidate goes through removeLocked, as
// in Delete, so the occupancy cache stays exact and the sweep serialises
// against concurrent Puts of the same hash (the predicate runs at delete
// time — a hash pinned before its Put can never be swept). It also
// removes the temp files of writers killed mid-Put: their bytes count
// as freed, but removed and Stats count blobs only.
func (d *Disk) GC(live func(artifact.Hash) bool) (int, int64, error) {
	d.gcRuns.Add(1)
	hashes, temps, err := d.scan()
	if err != nil {
		return 0, 0, err
	}
	removed, freed := 0, int64(0)
	for _, h := range hashes {
		// The liveness check runs under the same mutex as Put's
		// exists-check, so "pin, then Put" owners are safe: either the pin
		// lands first (live() sees it and the blob survives) or the Put
		// serialises after the removal and recreates the blob.
		d.mu.Lock()
		if live != nil && live(h) {
			d.mu.Unlock()
			continue
		}
		size, err := d.removeLocked(h)
		d.mu.Unlock()
		if errors.Is(err, ErrNotFound) {
			continue // already gone (concurrent Delete)
		}
		if err != nil {
			d.gcFreed.Add(freed)
			return removed, freed, err
		}
		removed++
		freed += size
	}
	for _, path := range temps {
		// Put holds mu across its write and rename, so a temp file that
		// still exists under mu belongs to no live writer.
		d.mu.Lock()
		info, err := os.Stat(path)
		if err == nil {
			err = os.Remove(path)
		}
		d.mu.Unlock()
		if errors.Is(err, fs.ErrNotExist) {
			continue // renamed away, or swept by a concurrent GC
		}
		if err != nil {
			d.gcFreed.Add(freed)
			return removed, freed, err
		}
		freed += info.Size()
	}
	d.gcFreed.Add(freed)
	return removed, freed, nil
}

// Stats implements Store.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	s := Stats{Objects: d.objects, Bytes: d.bytes}
	d.mu.Unlock()
	d.fill(&s)
	return s
}
