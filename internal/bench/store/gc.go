package store

import (
	"io/fs"
	"os"
	"path/filepath"
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

// GC evicts every entry, of any kind, last written more than maxAge
// ago, and sweeps orphaned temp files. Eviction races are benign: an
// entry is immutable once written, so a concurrent reader either got it
// before the unlink or misses and rebuilds. GC(0) only sweeps orphaned
// temp files.
func (s *Store) GC(maxAge time.Duration) (GCResult, error) {
	var (
		res      GCResult
		firstErr error
		now      = time.Now()
	)
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			// A vanished file just means a concurrent GC or writer won.
			return nil
		}
		name := d.Name()
		tmp := strings.HasPrefix(name, "put-") && strings.HasSuffix(name, ".tmp")
		if !tmp && !strings.HasSuffix(name, ".json") {
			return nil
		}
		info, ierr := d.Info()
		if ierr != nil {
			return nil
		}
		age := now.Sub(info.ModTime())
		if tmp {
			if age > tmpOrphanAge {
				os.Remove(path)
			}
			return nil
		}
		res.Scanned++
		if maxAge > 0 && age > maxAge {
			rerr := os.Remove(path)
			if rerr == nil || os.IsNotExist(rerr) {
				res.Evicted++
				res.Freed += info.Size()
				return nil
			}
			if firstErr == nil {
				firstErr = rerr
			}
		}
		res.Bytes += info.Size()
		return nil
	})
	if err != nil {
		return GCResult{}, err
	}
	return res, firstErr
}
