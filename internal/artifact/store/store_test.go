package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/artifact"
)

// implementations under test, each built fresh per subtest.
func implementations(t *testing.T) map[string]func() Store {
	t.Helper()
	return map[string]func() Store{
		"mem": func() Store { return NewMem() },
		"disk": func() Store {
			d, err := NewDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		"union": func() Store {
			d, err := NewDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return NewUnion(NewMem(), d)
		},
	}
}

// TestStoreContract runs the common semantics over every implementation.
func TestStoreContract(t *testing.T) {
	for name, build := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			s := build()
			blob := []byte("quantised words")
			h, err := s.Put(blob)
			if err != nil {
				t.Fatal(err)
			}
			if h != artifact.Sum(blob) {
				t.Fatal("Put returned a hash that is not the content hash")
			}
			got, err := s.Get(h)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, blob) {
				t.Fatalf("Get returned %q", got)
			}
			if ok, err := s.Has(h); err != nil || !ok {
				t.Fatalf("Has = %v, %v", ok, err)
			}
			if ok, _ := s.Has(artifact.Sum([]byte("absent"))); ok {
				t.Fatal("Has reports an absent hash")
			}
			if _, err := s.Get(artifact.Sum([]byte("absent"))); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get absent: %v", err)
			}

			// Dedup: same bytes again stores nothing new.
			if _, err := s.Put(blob); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.Objects != 1 {
				t.Fatalf("after duplicate Put: %d objects", st.Objects)
			}
			if st.PutDedups != 1 {
				t.Fatalf("put_dedups = %d, want 1", st.PutDedups)
			}
			if st.Bytes != int64(len(blob)) {
				t.Fatalf("bytes = %d, want %d", st.Bytes, len(blob))
			}

			// A second distinct blob coexists; List sees both.
			h2, err := s.Put([]byte("other artifact"))
			if err != nil {
				t.Fatal(err)
			}
			hashes, err := s.List()
			if err != nil {
				t.Fatal(err)
			}
			if len(hashes) != 2 {
				t.Fatalf("List: %d hashes", len(hashes))
			}

			// Delete removes exactly its blob.
			if err := s.Delete(h); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete(h); !errors.Is(err, ErrNotFound) {
				t.Fatalf("double Delete: %v", err)
			}
			if _, err := s.Get(h); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get after Delete: %v", err)
			}
			if _, err := s.Get(h2); err != nil {
				t.Fatalf("unrelated blob lost: %v", err)
			}
			if st := s.Stats(); st.Objects != 1 {
				t.Fatalf("after delete: %d objects", st.Objects)
			}
		})
	}
}

// TestConcurrentPutSameHash is the -race contract: many goroutines
// storing identical bytes must coexist and leave exactly one object.
func TestConcurrentPutSameHash(t *testing.T) {
	for name, build := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			s := build()
			blob := bytes.Repeat([]byte("w"), 4096)
			want := artifact.Sum(blob)
			var wg sync.WaitGroup
			errs := make([]error, 16)
			for i := range errs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					h, err := s.Put(blob)
					if err == nil && h != want {
						err = fmt.Errorf("hash mismatch")
					}
					errs[i] = err
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("put %d: %v", i, err)
				}
			}
			if st := s.Stats(); st.Objects != 1 || st.Bytes != int64(len(blob)) {
				t.Fatalf("after concurrent puts: %d objects, %d bytes", st.Objects, st.Bytes)
			}
			if got, err := s.Get(want); err != nil || !bytes.Equal(got, blob) {
				t.Fatalf("readback: %v", err)
			}
		})
	}
}

// TestGCContract: the reference-aware sweep over every implementation —
// blobs the live predicate claims survive, everything else is removed
// and accounted, and the gc counters show up in Stats.
func TestGCContract(t *testing.T) {
	for name, build := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			s := build()
			pinned := []byte("pinned artifact")
			hPinned, err := s.Put(pinned)
			if err != nil {
				t.Fatal(err)
			}
			var garbage []artifact.Hash
			var garbageBytes int64
			for i := 0; i < 3; i++ {
				blob := []byte(fmt.Sprintf("stranded blob %d", i))
				h, err := s.Put(blob)
				if err != nil {
					t.Fatal(err)
				}
				garbage = append(garbage, h)
				garbageBytes += int64(len(blob))
			}
			removed, freed, err := s.GC(func(h artifact.Hash) bool { return h == hPinned })
			if err != nil {
				t.Fatal(err)
			}
			if removed != len(garbage) {
				t.Fatalf("removed = %d, want %d", removed, len(garbage))
			}
			if freed != garbageBytes {
				t.Fatalf("freed = %d, want %d", freed, garbageBytes)
			}
			if got, err := s.Get(hPinned); err != nil || !bytes.Equal(got, pinned) {
				t.Fatalf("pinned blob swept: %v", err)
			}
			for _, h := range garbage {
				if ok, _ := s.Has(h); ok {
					t.Fatalf("garbage %s survived GC", h)
				}
			}
			st := s.Stats()
			if st.Objects != 1 || st.Bytes != int64(len(pinned)) {
				t.Fatalf("post-GC occupancy: %d objects, %d bytes", st.Objects, st.Bytes)
			}
			if st.GCRuns != 1 {
				t.Fatalf("gc_runs = %d, want 1", st.GCRuns)
			}
			if st.GCFreedBytes != garbageBytes {
				t.Fatalf("gc_freed_bytes = %d, want %d", st.GCFreedBytes, garbageBytes)
			}

			// A nil predicate means nothing is live: full sweep.
			if removed, _, err := s.GC(nil); err != nil || removed != 1 {
				t.Fatalf("nil-live GC: removed %d, %v", removed, err)
			}
			if st := s.Stats(); st.Objects != 0 || st.Bytes != 0 {
				t.Fatalf("store not empty after full sweep: %+v", st)
			}
		})
	}
}

// TestUnionDeleteHasTierSemantics: Has and Delete must see blobs that
// live in only one tier, and Delete must clear both.
func TestUnionDeleteHasTierSemantics(t *testing.T) {
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMem()
	u := NewUnion(mem, disk)

	fastOnly, err := mem.Put([]byte("fast-tier only"))
	if err != nil {
		t.Fatal(err)
	}
	slowOnly, err := disk.Put([]byte("slow-tier only"))
	if err != nil {
		t.Fatal(err)
	}
	both, err := u.Put([]byte("both tiers"))
	if err != nil {
		t.Fatal(err)
	}

	for name, h := range map[string]artifact.Hash{
		"fast-only": fastOnly, "slow-only": slowOnly, "both": both,
	} {
		if ok, err := u.Has(h); err != nil || !ok {
			t.Fatalf("Has(%s) = %v, %v", name, ok, err)
		}
	}

	// Delete-through: a blob present in either tier deletes cleanly.
	for name, h := range map[string]artifact.Hash{
		"fast-only": fastOnly, "slow-only": slowOnly, "both": both,
	} {
		if err := u.Delete(h); err != nil {
			t.Fatalf("Delete(%s): %v", name, err)
		}
		for tier, layer := range map[string]Store{"fast": mem, "slow": disk} {
			if ok, _ := layer.Has(h); ok {
				t.Fatalf("Delete(%s) left the blob in the %s tier", name, tier)
			}
		}
	}
	if err := u.Delete(both); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete absent: %v", err)
	}
}

// TestUnionStatsPerTier: the fast/slow breakdown satellite — the nested
// stats must reflect each tier's own counters.
func TestUnionStatsPerTier(t *testing.T) {
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h, err := disk.Put([]byte("cold blob")) // slow tier only
	if err != nil {
		t.Fatal(err)
	}
	u := NewUnion(NewMem(), disk)
	if _, err := u.Get(h); err != nil { // cold: miss fast, hit slow, warm fast
		t.Fatal(err)
	}
	if _, err := u.Get(h); err != nil { // warm: hit fast
		t.Fatal(err)
	}
	st := u.Stats()
	if st.Fast == nil || st.Slow == nil {
		t.Fatalf("per-tier stats missing: %+v", st)
	}
	if st.Slow.Hits != 1 {
		t.Fatalf("slow hits = %d, want 1 (one cold read)", st.Slow.Hits)
	}
	if st.Fast.Hits != 1 {
		t.Fatalf("fast hits = %d, want 1 (one warm read)", st.Fast.Hits)
	}
	if st.Gets != 2 || st.Hits != 2 {
		t.Fatalf("union gets/hits = %d/%d, want 2/2", st.Gets, st.Hits)
	}
}

// TestUnionReadOnlySlow: with a read-only slow tier (no peers behind
// it) the fast layer becomes authoritative — writes, listing, stats and
// GC all operate locally and never touch the peer tier.
func TestUnionReadOnlySlow(t *testing.T) {
	mem := NewMem()
	remote := NewRemote(nil) // zero peers, but still read-only
	u := NewUnion(mem, remote)

	blob := []byte("locally owned")
	h, err := u.Put(blob)
	if err != nil {
		t.Fatalf("Put over read-only slow: %v", err)
	}
	if ok, _ := mem.Has(h); !ok {
		t.Fatal("Put did not land in the fast tier")
	}
	if _, err := u.Put(blob); err != nil {
		t.Fatal(err)
	}
	st := u.Stats()
	if st.Objects != 1 || st.Bytes != int64(len(blob)) {
		t.Fatalf("occupancy should come from the fast tier: %+v", st)
	}
	if st.PutDedups != 1 {
		t.Fatalf("put_dedups = %d, want 1", st.PutDedups)
	}
	hashes, err := u.List()
	if err != nil || len(hashes) != 1 || hashes[0] != h {
		t.Fatalf("List = %v, %v", hashes, err)
	}
	if err := u.Delete(h); err != nil {
		t.Fatal(err)
	}
	if ok, _ := mem.Has(h); ok {
		t.Fatal("Delete did not clear the fast tier")
	}
	if _, err := u.Put(blob); err != nil {
		t.Fatal(err)
	}
	if removed, freed, err := u.GC(nil); err != nil || removed != 1 || freed != int64(len(blob)) {
		t.Fatalf("GC = %d, %d, %v", removed, freed, err)
	}

	// Local unwraps to the fast side so the artifacts endpoint can never
	// recurse into peers.
	if got := Local(u); got != Store(mem) {
		t.Fatalf("Local(%T) = %T, want the fast tier", u, got)
	}
	// A writable slow tier is already local; Local is the identity.
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writable := NewUnion(NewMem(), d)
	if got := Local(writable); got != Store(writable) {
		t.Fatalf("Local over writable slow = %T, want identity", got)
	}
}

// TestDiskDetectsCorruption: bytes rotted on disk must surface as
// ErrCorrupt, never be returned as the artifact.
func TestDiskDetectsCorruption(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte("pristine artifact bytes")
	h, err := d.Put(blob)
	if err != nil {
		t.Fatal(err)
	}
	// Rot one byte behind the store's back.
	path := filepath.Join(d.Root(), h.String()[:2], h.String())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get(h); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted Get: %v", err)
	}
	if st := d.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt counter = %d", st.Corrupt)
	}
	// The union surfaces the same failure instead of caching garbage.
	u := NewUnion(NewMem(), d)
	if _, err := u.Get(h); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("union corrupted Get: %v", err)
	}
	if ok, _ := u.Fast().Has(h); ok {
		t.Fatal("union cached a corrupt blob in the fast layer")
	}
}

// TestDiskPutShardBlocked: when a shard directory cannot be created (a
// stray file holds its name), Put fails, counts nothing, and a Put into
// another shard still succeeds.
func TestDiskPutShardBlocked(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte("blocked shard")
	shard := artifact.Sum(blob).String()[:2]
	if err := os.WriteFile(filepath.Join(d.Root(), shard), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Put(blob); err == nil {
		t.Fatal("Put into a shard blocked by a file succeeded")
	}
	if st := d.Stats(); st.Objects != 0 {
		t.Fatalf("objects = %d after a failed Put", st.Objects)
	}
	other := []byte("another shard")
	for artifact.Sum(other).String()[:2] == shard {
		other = append(other, '!')
	}
	h, err := d.Put(other)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := d.Get(h); err != nil || !bytes.Equal(got, other) {
		t.Fatalf("Get after Put: %q, %v", got, err)
	}
}

// TestDiskPersistsAcrossReopen: a new Disk over an existing root sees
// the blobs and counts them in Stats.
func TestDiskPersistsAcrossReopen(t *testing.T) {
	root := t.TempDir()
	d1, err := NewDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	h, err := d1.Put([]byte("durable"))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := d2.Get(h); err != nil || string(got) != "durable" {
		t.Fatalf("reopen Get: %q, %v", got, err)
	}
	if st := d2.Stats(); st.Objects != 1 || st.Bytes != int64(len("durable")) {
		t.Fatalf("reopen stats: %+v", st)
	}
}

// TestUnionReadThroughPopulatesFastLayer: the warm-cache behaviour the
// registry's instant warm loads ride on.
func TestUnionReadThroughPopulatesFastLayer(t *testing.T) {
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte("cold artifact")
	h, err := disk.Put(blob) // present only in the slow layer
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMem()
	u := NewUnion(mem, disk)
	if ok, _ := mem.Has(h); ok {
		t.Fatal("fast layer warm before any Get")
	}
	if got, err := u.Get(h); err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("cold Get: %v", err)
	}
	if ok, _ := mem.Has(h); !ok {
		t.Fatal("read-through did not populate the fast layer")
	}
	// The second Get is served from memory: disk's Get counter is flat.
	diskGets := disk.Stats().Gets
	if _, err := u.Get(h); err != nil {
		t.Fatal(err)
	}
	if got := disk.Stats().Gets; got != diskGets {
		t.Fatalf("warm Get still hit the slow layer (%d -> %d)", diskGets, got)
	}
	// Write-through: a Put lands in both layers.
	h2, err := u.Put([]byte("written through"))
	if err != nil {
		t.Fatal(err)
	}
	for name, layer := range map[string]Store{"fast": mem, "slow": disk} {
		if ok, _ := layer.Has(h2); !ok {
			t.Fatalf("Put did not reach the %s layer", name)
		}
	}
}

// TestDiskGCRemovesOrphanedTemps: the partial temp file a writer killed
// before its rename leaves in a shard is swept by GC after a reopen. Its
// bytes count as freed; removed, the live blob and Stats are untouched.
func TestDiskGCRemovesOrphanedTemps(t *testing.T) {
	root := t.TempDir()
	d1, err := NewDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte("committed artifact")
	h, err := d1.Put(blob)
	if err != nil {
		t.Fatal(err)
	}
	orphan := artifact.Sum([]byte("never committed")).String()
	partial := []byte("half a blob")
	temps := []string{
		filepath.Join(root, h.String()[:2], "."+h.String()+".tmp123"),
		filepath.Join(root, orphan[:2], "."+orphan+".tmp4567"),
	}
	for _, p := range temps {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, partial, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A stray file that is not WriteFileAtomic's is not the store's to remove.
	stray := filepath.Join(root, orphan[:2], "notes.txt")
	if err := os.WriteFile(stray, partial, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := NewDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	removed, freed, err := d.GC(func(artifact.Hash) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 || freed != int64(len(temps)*len(partial)) {
		t.Fatalf("GC removed %d, freed %d; want 0 and %d", removed, freed, len(temps)*len(partial))
	}
	for _, p := range temps {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("temp file %s survived GC: %v", filepath.Base(p), err)
		}
	}
	if _, err := os.Stat(stray); err != nil {
		t.Fatalf("GC removed a stray file: %v", err)
	}
	if got, err := d.Get(h); err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("live blob after GC: %q, %v", got, err)
	}
	if st := d.Stats(); st.Objects != 1 || st.Bytes != int64(len(blob)) || st.GCFreedBytes != freed {
		t.Fatalf("stats after GC: %+v", st)
	}
}

// TestDiskConcurrentPutGC: GC sweeping temp files while Puts write theirs
// never takes a temp file from a live writer, so every committed blob
// survives. Run under -race with -count.
func TestDiskConcurrentPutGC(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const puts = 64
	done := make(chan struct{})
	var sweeps sync.WaitGroup
	stop := sync.OnceFunc(func() { close(done); sweeps.Wait() })
	t.Cleanup(stop) // a failed Put must not leave the sweeper running
	sweeps.Add(1)
	go func() {
		defer sweeps.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, _, err := d.GC(func(artifact.Hash) bool { return true }); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var hashes []artifact.Hash
	for i := 0; i < puts; i++ {
		h, err := d.Put([]byte(fmt.Sprintf("blob %d", i)))
		if err != nil {
			t.Fatalf("Put %d during GC: %v", i, err)
		}
		hashes = append(hashes, h)
	}
	stop()
	for i, h := range hashes {
		if got, err := d.Get(h); err != nil || string(got) != fmt.Sprintf("blob %d", i) {
			t.Fatalf("blob %d after concurrent GC: %q, %v", i, got, err)
		}
	}
	if st := d.Stats(); st.Objects != puts {
		t.Fatalf("objects = %d, want %d", st.Objects, puts)
	}
}
