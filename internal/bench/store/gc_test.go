package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"branchreorder/internal/lower"
	"branchreorder/internal/pipeline"
)

// gcStore populates a store with n entries whose mtimes step backwards
// in time: entry 0 is the oldest. It returns the store and the
// fingerprints in creation order.
func gcStore(t *testing.T, n int) (*Store, []string) {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fps := make([]string, n)
	now := time.Now()
	for i := 0; i < n; i++ {
		fp := Fingerprint(fmt.Sprintf("src%d", i), nil, nil,
			pipeline.Options{Switch: lower.SetI, Optimize: true})
		if err := s.Put(fp, testRecord()); err != nil {
			t.Fatal(err)
		}
		mtime := now.Add(-time.Duration(n-i) * time.Hour)
		if err := os.Chtimes(s.path(fp), mtime, mtime); err != nil {
			t.Fatal(err)
		}
		fps[i] = fp
	}
	return s, fps
}

func entryStatus(s *Store, fp string) Status {
	_, st := s.Get(fp)
	return st
}

// Age-based GC must evict exactly the entries older than the bound and
// account for the bytes it freed and kept.
func TestGCEvictsByAge(t *testing.T) {
	s, fps := gcStore(t, 4) // ages 4h, 3h, 2h, 1h
	var sizes []int64
	for _, fp := range fps {
		info, err := os.Stat(s.path(fp))
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, info.Size())
	}
	res, err := s.GC(150 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evicted != 2 || res.Scanned != 4 {
		t.Fatalf("GC: %+v, want 2 of 4 evicted", res)
	}
	if res.Freed != sizes[0]+sizes[1] || res.Bytes != sizes[2]+sizes[3] {
		t.Errorf("GC byte accounting off: %+v, sizes %v", res, sizes)
	}
	for i, want := range []Status{Miss, Miss, Hit, Hit} {
		if got := entryStatus(s, fps[i]); got != want {
			t.Errorf("entry %d: %v, want %v", i, got, want)
		}
	}
}

// GC(0) must be a no-op for entries but still sweep orphaned temp
// files old enough that no live writer owns them.
func TestGCSweepsOrphanedTempFiles(t *testing.T) {
	s, fps := gcStore(t, 2)
	sub := filepath.Dir(s.path(fps[0]))
	oldTmp := filepath.Join(sub, "put-dead.tmp")
	newTmp := filepath.Join(sub, "put-live.tmp")
	for _, p := range []string{oldTmp, newTmp} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stale := time.Now().Add(-2 * tmpOrphanAge)
	if err := os.Chtimes(oldTmp, stale, stale); err != nil {
		t.Fatal(err)
	}

	res, err := s.GC(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evicted != 0 {
		t.Errorf("GC(0) evicted %d entries", res.Evicted)
	}
	if _, err := os.Stat(oldTmp); !os.IsNotExist(err) {
		t.Error("orphaned temp file survived")
	}
	if _, err := os.Stat(newTmp); err != nil {
		t.Error("fresh temp file was swept")
	}
	for i, fp := range fps {
		if got := entryStatus(s, fp); got != Hit {
			t.Errorf("entry %d: %v, want hit", i, got)
		}
	}
}

// Entries of the retired kinds that an older brbench left in a cache
// directory are never served, leave the build entries beside them
// served, and age out under GC like any other entry.
func TestGCWrapperAgesAllKinds(t *testing.T) {
	s, fps := gcStore(t, 2) // ages 2h, 1h
	old := time.Now().Add(-4 * time.Hour)
	for _, e := range retiredEntries {
		path := s.path(e.fp)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(e.data), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, old, old); err != nil {
			t.Fatal(err)
		}
		if st := entryStatus(s, e.fp); st != Invalid {
			t.Errorf("%s entry: Get = %v, want invalid", e.kind, st)
		}
	}
	for i, fp := range fps {
		if st := entryStatus(s, fp); st != Hit {
			t.Errorf("build entry %d beside the retired kinds: %v, want hit", i, st)
		}
	}
	res, err := s.GC(90 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evicted != 3 || res.Scanned != 4 {
		t.Errorf("GC: %+v, want 3 of 4 evicted", res)
	}
	for _, e := range retiredEntries {
		if st := entryStatus(s, e.fp); st != Miss {
			t.Errorf("GC spared a stale %s entry (%v)", e.kind, st)
		}
	}
	if st := entryStatus(s, fps[1]); st != Hit {
		t.Errorf("GC evicted a fresh build entry (%v)", st)
	}
}
