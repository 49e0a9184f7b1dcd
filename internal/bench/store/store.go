// Package store persists build+measure results on disk so repeated
// brbench invocations skip unchanged builds, and writes the -json dump
// of measured runs.
//
// The store is content-addressed: an entry's name is the SHA-256
// fingerprint of everything that determines its result (workload source,
// training and test inputs, the full pipeline configuration, and the
// store schema version), so a change to any input simply misses and
// rebuilds — there is no invalidation protocol and no locking. Every
// entry is one build record. Entries are written atomically (temp file +
// rename in the same directory) and carry a checksum, verified by
// re-encoding the decoded record; anything corrupt, truncated,
// schema-mismatched, of another kind, or misplaced decodes as a miss,
// never an error and never a panic. A build entry holds the program's
// output once; -json records carry it in both measurements.
package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// SchemaVersion identifies the on-disk layout. Any change to the record
// shape, the fingerprint inputs, or the measurement semantics must bump
// it; entries written under any other version are treated as misses.
// Version 2: Options/DetectOptions gained the profile configuration
// (changing every fingerprint), SeqStat records the selected ordering,
// and merged-profile entries are a third record kind.
// Version 3: a build entry stores the program's output once, writing
// the reordered measurement's output as null. Retiring the profile and
// merged-profile kinds later left build entries and fingerprints as
// they were, so it kept version 3.
// Version 4: a measurement no longer records the measuring engine's
// fusion report, so every engine writes the same bytes.
const SchemaVersion = 4

// Status classifies the outcome of a Get.
type Status int

const (
	// Miss: no entry exists for the fingerprint.
	Miss Status = iota
	// Hit: the entry decoded and validated.
	Hit
	// Invalid: an entry exists but is corrupt, truncated, unreadable, or
	// written under a different schema. Callers treat it as a miss; the
	// status exists so the engine can count invalidations separately.
	Invalid
)

func (s Status) String() string {
	switch s {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case Invalid:
		return "invalid"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Store is one on-disk result cache rooted at a directory. The zero
// value is not usable; call Open. A Store is safe for concurrent use by
// any number of processes: entries are immutable once renamed into
// place, and concurrent writers of the same fingerprint write identical
// content.
type Store struct {
	dir string
}

// Open returns a store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// path places entries in two-hex-digit subdirectories (like git's object
// store) so no single directory grows unboundedly.
func (s *Store) path(fp string) string {
	return filepath.Join(s.dir, fp[:2], fp+".json")
}

// Get loads the entry for fp. A Hit returns the decoded record; Miss and
// Invalid return nil, and differ only in whether a file was present.
// Nothing is cached: every call reads and verifies its own file.
func (s *Store) Get(fp string) (*Record, Status) {
	if len(fp) < 2 {
		return nil, Miss
	}
	data, err := os.ReadFile(s.path(fp))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, Miss
	}
	var rec *Record
	if err == nil {
		rec, err = Decode(data, fp)
	}
	if err != nil {
		return nil, Invalid
	}
	return rec, Hit
}

// Put writes the entry for fp atomically: the encoded record goes to a
// temp file in the destination directory first and is renamed over the
// final name, so a concurrent reader sees either nothing or a complete
// entry, and a crash leaves at worst an orphaned temp file.
func (s *Store) Put(fp string, rec *Record) error {
	data, err := Encode(fp, rec)
	if err != nil {
		return err
	}
	if len(fp) < 2 {
		return fmt.Errorf("store: unusable fingerprint %q", fp)
	}
	dst := s.path(fp)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(dst), "put-*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), dst)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", werr)
	}
	return nil
}
