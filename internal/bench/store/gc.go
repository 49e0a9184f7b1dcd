package store

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// tmpOrphanAge is how old a put-*.tmp file must be before GC treats it
// as debris from a crashed writer rather than an in-flight Put.
const tmpOrphanAge = time.Hour

// GCResult summarizes one collection pass.
type GCResult struct {
	Scanned int   // entries examined
	Evicted int   // entries removed
	Bytes   int64 // bytes retained after collection
	Freed   int64 // bytes reclaimed
}

// GCPolicy configures a collection pass. Profile-kind entries (stage-2
// profiles and merged profiles) are policed separately from build
// results: they are tiny but represent training runs that later runs
// reuse for a long time, so the result LRU bytes budget must not churn
// them out. A zero or negative bound disables that criterion.
type GCPolicy struct {
	// MaxAge evicts build-result entries older than this.
	MaxAge time.Duration
	// MaxBytes is the LRU bytes budget for build-result entries (by
	// mtime — Touch refreshes it on a hit). Profile-kind entries neither
	// count against nor are evicted by it.
	MaxBytes int64
	// ProfileMaxAge evicts profile-kind entries older than this — the
	// only bound that applies to them, typically much longer than MaxAge.
	ProfileMaxAge time.Duration
}

// GC evicts every entry, of any kind, last written more than maxAge
// ago, and sweeps orphaned temp files. Eviction races are benign: an
// entry is immutable once written, so a concurrent reader either got it
// before the unlink or misses and rebuilds. GC(0) only sweeps orphaned
// temp files.
func (s *Store) GC(maxAge time.Duration) (GCResult, error) {
	return s.GCWith(GCPolicy{MaxAge: maxAge, ProfileMaxAge: maxAge})
}

// GCWith runs one collection pass under the given policy.
func (s *Store) GCWith(p GCPolicy) (GCResult, error) {
	type entry struct {
		path    string
		mtime   time.Time
		size    int64
		profile bool
	}
	var (
		entries []entry
		total   int64 // build-result bytes, the budget MaxBytes polices
		kept    int64 // bytes of entries exempt from the budget
		now     = time.Now()
	)
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			// A vanished file just means a concurrent GC or writer won.
			return nil
		}
		name := d.Name()
		if strings.HasPrefix(name, "put-") && strings.HasSuffix(name, ".tmp") {
			if info, ierr := d.Info(); ierr == nil && now.Sub(info.ModTime()) > tmpOrphanAge {
				os.Remove(path)
			}
			return nil
		}
		if !strings.HasSuffix(name, ".json") {
			return nil
		}
		info, ierr := d.Info()
		if ierr != nil {
			return nil
		}
		e := entry{path: path, mtime: info.ModTime(), size: info.Size(), profile: isProfileEntry(path)}
		entries = append(entries, e)
		if e.profile {
			kept += e.size
		} else {
			total += e.size
		}
		return nil
	})
	if err != nil {
		return GCResult{}, err
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].mtime.Before(entries[j].mtime) })

	res := GCResult{Scanned: len(entries)}
	var firstErr error
	evict := func(e entry) {
		if rerr := os.Remove(e.path); rerr != nil && !os.IsNotExist(rerr) {
			if firstErr == nil {
				firstErr = rerr
			}
			return
		}
		res.Evicted++
		res.Freed += e.size
		if e.profile {
			kept -= e.size
		} else {
			total -= e.size
		}
	}
	for _, e := range entries {
		if e.profile {
			if p.ProfileMaxAge > 0 && now.Sub(e.mtime) > p.ProfileMaxAge {
				evict(e)
			}
			continue
		}
		stale := p.MaxAge > 0 && now.Sub(e.mtime) > p.MaxAge
		over := p.MaxBytes > 0 && total > p.MaxBytes
		if stale || over {
			// Entries are oldest-first, so once a result is neither stale
			// nor over budget no later result is either — but profile
			// entries interleave, so keep scanning rather than break.
			evict(e)
		}
	}
	res.Bytes = total + kept
	return res, firstErr
}

// profileHeadWindow bounds how much of an entry is read to classify its
// kind: the envelope leads with schema, then kind, so the tag (when
// present) always sits in the first few dozen bytes.
const profileHeadWindow = 256

// isProfileEntry reports whether the entry at path is a profile-kind
// record (stage-2 profile or merged profile) by scanning the head of
// its envelope for the kind tag. Build entries omit the field entirely.
// Unreadable or unrecognizable files classify as build entries, so
// corruption stays subject to the ordinary result bounds.
func isProfileEntry(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	head := make([]byte, profileHeadWindow)
	n, _ := io.ReadFull(f, head)
	f.Close()
	head = head[:n]
	i := strings.Index(string(head), `"kind": "`)
	if i < 0 {
		return false
	}
	rest := string(head[i+len(`"kind": "`):])
	end := strings.IndexByte(rest, '"')
	if end < 0 {
		return false
	}
	kind := rest[:end]
	return kind == KindProfile || kind == KindMerged
}

// Touch marks fp's entry as recently used so LRU eviction spares it.
// Errors are ignored: a missing entry means a concurrent eviction won,
// and losing one touch costs at worst one early eviction.
func (s *Store) Touch(fp string) {
	if len(fp) < 2 {
		return
	}
	now := time.Now()
	os.Chtimes(s.path(fp), now, now)
}
