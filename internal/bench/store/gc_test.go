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

// A bytes budget must evict least-recently-used first and stop as soon
// as the store fits.
func TestGCEvictsLRUBySize(t *testing.T) {
	s, fps := gcStore(t, 4)
	var sizes []int64
	var total int64
	for _, fp := range fps {
		info, err := os.Stat(s.path(fp))
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, info.Size())
		total += info.Size()
	}
	// Budget for the two newest entries (plus slack below one entry):
	// exactly the two oldest must go.
	budget := sizes[2] + sizes[3] + sizes[0]/2
	res, err := s.GCWith(GCPolicy{MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evicted != 2 {
		t.Fatalf("GC evicted %d, want 2 (%+v)", res.Evicted, res)
	}
	if res.Bytes != sizes[2]+sizes[3] || res.Freed != total-res.Bytes {
		t.Errorf("GC byte accounting off: %+v", res)
	}
	for i, want := range []Status{Miss, Miss, Hit, Hit} {
		if got := entryStatus(s, fps[i]); got != want {
			t.Errorf("entry %d: %v, want %v", i, got, want)
		}
	}
}

// Touch must refresh an entry's LRU position: the oldest entry, once
// touched, survives a size-bound GC that evicts its untouched peers.
func TestTouchProtectsFromEviction(t *testing.T) {
	s, fps := gcStore(t, 3)
	s.Touch(fps[0])
	info, err := os.Stat(s.path(fps[2]))
	if err != nil {
		t.Fatal(err)
	}
	// Room for roughly two entries: the untouched older pair loses.
	if _, err := s.GCWith(GCPolicy{MaxBytes: 2*info.Size() + info.Size()/2}); err != nil {
		t.Fatal(err)
	}
	if got := entryStatus(s, fps[0]); got != Hit {
		t.Errorf("touched entry evicted (%v)", got)
	}
	if got := entryStatus(s, fps[1]); got != Miss {
		t.Errorf("LRU entry survived (%v)", got)
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

// gcProfileStore adds profile-kind entries (one stage-2 profile, one
// merged profile) to a build-entry store, all backdated to be the
// oldest files present.
func gcProfileStore(t *testing.T, builds int) (*Store, []string, []string) {
	t.Helper()
	s, fps := gcStore(t, builds)
	pfp := profileFP()
	if err := s.PutProfile(pfp, FromTrain(sampleTrain())); err != nil {
		t.Fatal(err)
	}
	mrec := &MergedRecord{HalfLife: 1}
	mrec.Merge(TrainDigest([]byte("input-a")), FromTrain(sampleTrain()))
	mfp := mergedFP()
	if err := s.PutMerged(mfp, mrec); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Duration(builds+2) * time.Hour)
	for _, fp := range []string{pfp, mfp} {
		if err := os.Chtimes(s.path(fp), old, old); err != nil {
			t.Fatal(err)
		}
	}
	return s, fps, []string{pfp, mfp}
}

// The result LRU bytes budget must never evict profile-kind entries,
// even when they are the oldest files in the store.
func TestGCBytesBudgetSparesProfiles(t *testing.T) {
	s, fps, pfps := gcProfileStore(t, 4)
	// A budget of one byte forces out every result; the (older!)
	// profile entries must all survive.
	res, err := s.GCWith(GCPolicy{MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evicted != len(fps) {
		t.Fatalf("evicted %d, want all %d results", res.Evicted, len(fps))
	}
	for i, fp := range fps {
		if got := entryStatus(s, fp); got != Miss {
			t.Errorf("result %d survived a 1-byte budget (%v)", i, got)
		}
	}
	if _, st := s.GetProfile(pfps[0]); st != Hit {
		t.Errorf("profile entry evicted by the result bytes budget (%v)", st)
	}
	if _, st := s.GetMerged(pfps[1]); st != Hit {
		t.Errorf("merged entry evicted by the result bytes budget (%v)", st)
	}
}

// ProfileMaxAge is the profile entries' own bound: a pass with a short
// profile age and no result bounds must evict exactly them.
func TestGCProfileMaxAge(t *testing.T) {
	s, fps, pfps := gcProfileStore(t, 2)
	res, err := s.GCWith(GCPolicy{ProfileMaxAge: time.Duration(len(fps)+1) * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evicted != 2 {
		t.Fatalf("evicted %d, want the 2 profile entries", res.Evicted)
	}
	if _, st := s.GetProfile(pfps[0]); st != Miss {
		t.Errorf("stale profile survived ProfileMaxAge (%v)", st)
	}
	if _, st := s.GetMerged(pfps[1]); st != Miss {
		t.Errorf("stale merged record survived ProfileMaxAge (%v)", st)
	}
	for i, fp := range fps {
		if got := entryStatus(s, fp); got != Hit {
			t.Errorf("result %d evicted by the profile age bound (%v)", i, got)
		}
	}
}

// GC applies its age bound to every entry kind alike.
func TestGCWrapperAgesAllKinds(t *testing.T) {
	s, _, pfps := gcProfileStore(t, 2)
	if _, err := s.GC(time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, st := s.GetProfile(pfps[0]); st != Miss {
		t.Errorf("GC spared a stale profile entry (%v)", st)
	}
	if _, st := s.GetMerged(pfps[1]); st != Miss {
		t.Errorf("GC spared a stale merged entry (%v)", st)
	}
}
