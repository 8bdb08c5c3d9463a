package registry

// Tests for the content-addressed storage plane behind the registry:
// every load lands the canonical binary artifact in the store, same-hash
// loads under different names dedup, and binary artifacts load
// transparently next to JSON ones.

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/artifact/store"
	"repro/internal/engine"
)

func TestLoadStoresCanonicalArtifact(t *testing.T) {
	model := posit8Model(11)
	r := New(WithRuntimeOptions(engine.WithWorkers(1)))
	defer r.Close()
	if err := r.Load("m", model); err != nil {
		t.Fatal(err)
	}
	stat, err := r.Stat("m")
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, wantHash, err := artifact.Canonical(model)
	if err != nil {
		t.Fatal(err)
	}
	if stat.ContentHash != wantHash.String() {
		t.Fatalf("content hash %s, want %s", stat.ContentHash, wantHash)
	}
	if stat.ArtifactBytes != int64(len(wantBytes)) {
		t.Fatalf("artifact bytes %d, want %d", stat.ArtifactBytes, len(wantBytes))
	}
	got, err := r.Store().Get(wantHash)
	if err != nil {
		t.Fatalf("canonical bytes not in store: %v", err)
	}
	if string(got) != string(wantBytes) {
		t.Fatal("stored bytes are not the canonical encoding")
	}
}

// TestSameHashLoadsDedup: the acceptance contract — loading the same
// artifact bytes under two names stores them once.
func TestSameHashLoadsDedup(t *testing.T) {
	model := posit8Model(12)
	data, err := json.Marshal(model.(json.Marshaler))
	if err != nil {
		t.Fatal(err)
	}
	r := New(WithRuntimeOptions(engine.WithWorkers(1)))
	defer r.Close()
	if err := r.LoadBytes("first", data); err != nil {
		t.Fatal(err)
	}
	if err := r.LoadBytes("second", data); err != nil {
		t.Fatal(err)
	}
	st := r.StoreStats()
	if st.Objects != 1 {
		t.Fatalf("two names over one artifact stored %d objects", st.Objects)
	}
	if st.PutDedups != 1 {
		t.Fatalf("put_dedups = %d, want 1", st.PutDedups)
	}
	a, _ := r.Stat("first")
	b, _ := r.Stat("second")
	if a.ContentHash != b.ContentHash {
		t.Fatalf("same artifact, different hashes: %s vs %s", a.ContentHash, b.ContentHash)
	}
	// A genuinely different model adds a second object.
	if err := r.Load("third", posit8Model(13)); err != nil {
		t.Fatal(err)
	}
	if st := r.StoreStats(); st.Objects != 2 {
		t.Fatalf("distinct model did not add an object: %d", st.Objects)
	}
}

// TestLoadPathBinaryAndJSON: LoadPath sniffs the format; both forms of
// one model serve bit-identical logits and share one content hash.
func TestLoadPathBinaryAndJSON(t *testing.T) {
	model := posit8Model(14)
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "m.json")
	binPath := filepath.Join(dir, "m.bin")
	if err := model.Save(jsonPath); err != nil {
		t.Fatal(err)
	}
	if err := artifact.Save(model, binPath); err != nil {
		t.Fatal(err)
	}

	r := New(WithRuntimeOptions(engine.WithWorkers(1)))
	defer r.Close()
	if err := r.LoadPath("js", jsonPath); err != nil {
		t.Fatal(err)
	}
	if err := r.LoadPath("bin", binPath); err != nil {
		t.Fatal(err)
	}
	js, _ := r.Stat("js")
	bin, _ := r.Stat("bin")
	if js.ContentHash != bin.ContentHash {
		t.Fatalf("JSON and binary forms hash differently: %s vs %s", js.ContentHash, bin.ContentHash)
	}
	if st := r.StoreStats(); st.Objects != 1 || st.PutDedups != 1 {
		t.Fatalf("cross-format dedup failed: %+v", st)
	}
	for _, name := range []string{"js", "bin"} {
		h, err := r.Acquire(name)
		if err != nil {
			t.Fatal(err)
		}
		x := testInput(3)
		got, err := h.Batcher().Infer(context.Background(), x)
		h.Release()
		if err != nil {
			t.Fatal(err)
		}
		want := model.NewInferer().Infer(x)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s: logit %d diverges", name, j)
			}
		}
	}
}

// TestWithDurableStore: a union(mem, disk) store persists artifacts
// across registry restarts — the warm-load path.
func TestWithDurableStore(t *testing.T) {
	root := t.TempDir()
	disk, err := store.NewDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	model := posit8Model(15)
	r1 := New(WithRuntimeOptions(engine.WithWorkers(1)), WithStore(store.NewUnion(store.NewMem(), disk)))
	if err := r1.Load("m", model); err != nil {
		t.Fatal(err)
	}
	stat, _ := r1.Stat("m")
	_ = r1.Close()

	// A fresh registry over the same disk root sees the artifact.
	disk2, err := store.NewDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	r2 := New(WithRuntimeOptions(engine.WithWorkers(1)), WithStore(store.NewUnion(store.NewMem(), disk2)))
	defer r2.Close()
	h, err := artifact.ParseHash(stat.ContentHash)
	if err != nil {
		t.Fatal(err)
	}
	data, err := r2.Store().Get(h)
	if err != nil {
		t.Fatalf("artifact did not survive the restart: %v", err)
	}
	if err := r2.LoadBytes("m", data); err != nil {
		t.Fatal(err)
	}
	if st, _ := r2.Stat("m"); st.ContentHash != stat.ContentHash {
		t.Fatal("reloaded artifact changed identity")
	}
	if st := r2.StoreStats(); st.PutDedups != 1 {
		t.Fatalf("reload from store did not dedup: %+v", st)
	}
}

// TestLoadHash: a model instantiates from its content address alone —
// the store-first payoff — and a live same-hash entry aliases instead
// of building a second runtime.
func TestLoadHash(t *testing.T) {
	model := posit8Model(16)
	r := New(WithRuntimeOptions(engine.WithWorkers(1)))
	defer r.Close()
	if err := r.Load("origin", model); err != nil {
		t.Fatal(err)
	}
	stat, _ := r.Stat("origin")
	h, err := artifact.ParseHash(stat.ContentHash)
	if err != nil {
		t.Fatal(err)
	}

	if err := r.LoadHash("by-hash", h); err != nil {
		t.Fatal(err)
	}
	hd, err := r.Acquire("by-hash")
	if err != nil {
		t.Fatal(err)
	}
	x := testInput(4)
	got, err := hd.Batcher().Infer(context.Background(), x)
	hd.Release()
	if err != nil {
		t.Fatal(err)
	}
	want := model.NewInferer().Infer(x)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("logit %d diverges: %v != %v", j, got[j], want[j])
		}
	}
	// Same content hash → one shared entry, two names.
	if st, _ := r.Stat("by-hash"); st.Aliases != 2 || st.ContentHash != stat.ContentHash {
		t.Fatalf("alias stat: %+v", st)
	}

	// Errors: a hash the store has never seen, and the zero hash.
	if err := r.LoadHash("missing", artifact.Sum([]byte("no such artifact"))); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("LoadHash of absent artifact: %v", err)
	}
	if err := r.LoadHash("zero", artifact.Hash{}); err == nil {
		t.Fatal("LoadHash accepted the zero hash")
	}
	if err := r.LoadHash("origin", h); !errors.Is(err, ErrExists) {
		t.Fatalf("LoadHash over a taken name: %v", err)
	}
}

// TestAliasLifecycle: two names over one artifact share a runtime;
// unloading one leaves the other serving, unloading the last drains.
func TestAliasLifecycle(t *testing.T) {
	model := posit8Model(17)
	data, err := json.Marshal(model.(json.Marshaler))
	if err != nil {
		t.Fatal(err)
	}
	r := New(WithRuntimeOptions(engine.WithWorkers(1)))
	defer r.Close()
	if err := r.LoadBytes("a", data); err != nil {
		t.Fatal(err)
	}
	if err := r.LoadBytes("b", data); err != nil {
		t.Fatal(err)
	}
	ha, err := r.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	hb, err := r.Acquire("b")
	if err != nil {
		t.Fatal(err)
	}
	if ha.Runtime() != hb.Runtime() {
		t.Fatal("same content hash did not share a runtime")
	}
	if ha.Name() != "a" || hb.Name() != "b" {
		t.Fatalf("handle names: %q, %q", ha.Name(), hb.Name())
	}
	ha.Release()
	hb.Release()

	// Unloading one alias must not drain the shared runtime.
	if err := r.Unload("a"); err != nil {
		t.Fatal(err)
	}
	hb2, err := r.Acquire("b")
	if err != nil {
		t.Fatalf("surviving alias gone: %v", err)
	}
	if _, err := hb2.Batcher().Infer(context.Background(), testInput(5)); err != nil {
		t.Fatalf("infer after sibling unload: %v", err)
	}
	rt := hb2.Runtime()
	hb2.Release()

	// The last name drains and closes the runtime.
	if err := r.Unload("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.InferBatch(context.Background(), [][]float64{testInput(6)}); !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("runtime after last unload: %v, want ErrClosed", err)
	}
}

// TestUnloadThenGCFreesDiskBytes: the PR-8 blob-leak regression — after
// the last name over an artifact unloads, a GC sweep reclaims its disk
// bytes.
func TestUnloadThenGCFreesDiskBytes(t *testing.T) {
	disk, err := store.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := New(WithRuntimeOptions(engine.WithWorkers(1)), WithStore(store.NewUnion(store.NewMem(), disk)))
	defer r.Close()
	if err := r.Load("m", posit8Model(18)); err != nil {
		t.Fatal(err)
	}
	stat, _ := r.Stat("m")
	h, err := artifact.ParseHash(stat.ContentHash)
	if err != nil {
		t.Fatal(err)
	}
	before := disk.Stats()
	if before.Objects != 1 || before.Bytes != stat.ArtifactBytes {
		t.Fatalf("disk before GC: %+v", before)
	}

	// While the name is loaded, GC must not touch the blob.
	if removed, _, err := r.GC(); err != nil || removed != 0 {
		t.Fatalf("GC with model loaded: removed %d, %v", removed, err)
	}
	if ok, _ := disk.Has(h); !ok {
		t.Fatal("GC swept a loaded model's artifact")
	}

	if err := r.Unload("m"); err != nil {
		t.Fatal(err)
	}
	removed, freed, err := r.GC()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || freed != stat.ArtifactBytes {
		t.Fatalf("GC after unload: removed %d, freed %d (want 1, %d)", removed, freed, stat.ArtifactBytes)
	}
	if ok, _ := disk.Has(h); ok {
		t.Fatal("unreferenced blob survived GC on disk")
	}
	after := disk.Stats()
	if after.Objects != 0 || after.Bytes != 0 {
		t.Fatalf("disk after GC: %+v", after)
	}
	if after.GCRuns == 0 || after.GCFreedBytes != stat.ArtifactBytes {
		t.Fatalf("disk GC counters: %+v", after)
	}
}

// TestGCNeverSweepsPinnedConcurrent is the acceptance contract under
// -race: GC sweeps run concurrently with load/unload churn must never
// remove a blob that a loaded (or in-flight-loading) model references.
func TestGCNeverSweepsPinnedConcurrent(t *testing.T) {
	r := New(WithRuntimeOptions(engine.WithWorkers(1)))
	defer r.Close()

	const goroutines = 4
	const iters = 25
	stop := make(chan struct{})
	var sweeper sync.WaitGroup
	sweeper.Add(1)
	go func() {
		defer sweeper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := r.GC(); err != nil {
				t.Errorf("GC: %v", err)
				return
			}
		}
	}()

	var churn sync.WaitGroup
	churn.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer churn.Done()
			model := posit8Model(uint64(100 + g))
			for i := 0; i < iters; i++ {
				switch err := r.Load("gc-churn", model); {
				case err == nil, errors.Is(err, ErrExists):
				default:
					t.Errorf("g%d load: %v", g, err)
					return
				}
				h, err := r.Acquire("gc-churn")
				if err != nil {
					if errors.Is(err, ErrNotFound) {
						continue // another goroutine unloaded first
					}
					t.Errorf("g%d acquire: %v", g, err)
					return
				}
				// The blob behind a live handle must be fetchable: GC has
				// not swept it.
				if ch := h.ContentHash(); ch != (artifact.Hash{}) {
					if _, err := r.Store().Get(ch); err != nil {
						t.Errorf("g%d: loaded model's blob unreadable: %v", g, err)
					}
				}
				h.Release()
				if err := r.Unload("gc-churn"); err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("g%d unload: %v", g, err)
					return
				}
			}
		}(g)
	}
	churn.Wait()
	close(stop)
	sweeper.Wait()
}

// TestGCKeepsDrainingEntryBlob: a model unloaded while a handle is still
// in flight keeps its blob out of GC sweeps until the handle drains;
// the next sweep after that reclaims it.
func TestGCKeepsDrainingEntryBlob(t *testing.T) {
	r := New(WithRuntimeOptions(engine.WithWorkers(1)))
	defer r.Close()
	if err := r.Load("m", posit8Model(7)); err != nil {
		t.Fatal(err)
	}
	h, err := r.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	unloaded := make(chan error, 1)
	go func() { unloaded <- r.Unload("m") }()
	deadline := time.Now().Add(5 * time.Second)
	for r.Len() != 0 {
		if time.Now().After(deadline) {
			h.Release()
			t.Fatal("unload never removed the name")
		}
		time.Sleep(time.Millisecond)
	}
	if removed, _, err := r.GC(); err != nil || removed != 0 {
		h.Release()
		t.Fatalf("GC with a live handle: removed %d, %v", removed, err)
	}
	if _, err := r.Store().Get(h.ContentHash()); err != nil {
		h.Release()
		t.Fatalf("draining model's blob unreadable: %v", err)
	}
	h.Release()
	if err := <-unloaded; err != nil {
		t.Fatal(err)
	}
	if removed, _, err := r.GC(); err != nil || removed != 1 {
		t.Fatalf("GC after drain: removed %d, %v, want 1", removed, err)
	}
}
