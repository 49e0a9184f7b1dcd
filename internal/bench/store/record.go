package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"branchreorder/internal/interp"
	"branchreorder/internal/pipeline"
	"branchreorder/internal/sim"
)

// SeqStat is the per-sequence outcome the static table and the
// sequence-length figures consume: whether the sequence was reordered,
// and its length in conditional branches before and after (NewBranches
// is 0 when the reordering was skipped).
type SeqStat struct {
	Applied      bool `json:"applied"`
	OrigBranches int  `json:"origBranches"`
	NewBranches  int  `json:"newBranches"`
	// The selected ordering (core.Ordering), recorded so the profile
	// quality study can compare a sampled/drifted build's selections
	// against the exact build's without re-deriving them: the explicit
	// test order (arm indices), the omitted arms, and the Figure-8
	// default-choice target (-1 when nothing is omitted).
	Order   []int `json:"order,omitempty"`
	Omitted []int `json:"omitted,omitempty"`
	Default int   `json:"default"`
}

// Measurement mirrors sim.Measurement with a lossless output encoding:
// JSON strings must be valid UTF-8, so program output travels as bytes
// (base64) and survives arbitrary content byte-for-byte.
type Measurement struct {
	Stats       interp.Stats      `json:"stats"`
	Output      []byte            `json:"output"`
	Ret         int64             `json:"ret"`
	Mispredicts map[string]uint64 `json:"mispredicts"`
	Cycles      map[string]uint64 `json:"cycles"`
}

// FromSim converts a measurement to its serializable form. It keeps
// what the measured program did and drops sim's Fusion report, which
// describes the measuring engine's decode, so a record's bytes do not
// depend on the engine.
func FromSim(m *sim.Measurement) *Measurement {
	if m == nil {
		return nil
	}
	return &Measurement{
		Stats:       m.Stats,
		Output:      []byte(m.Output),
		Ret:         m.Ret,
		Mispredicts: m.Mispredicts,
		Cycles:      m.Cycles,
	}
}

// Sim converts the measurement back for the tables and figures.
func (m *Measurement) Sim() *sim.Measurement {
	return &sim.Measurement{
		Stats:       m.Stats,
		Output:      string(m.Output),
		Ret:         m.Ret,
		Mispredicts: m.Mispredicts,
		Cycles:      m.Cycles,
	}
}

// Record is the serializable form of one build+measure result: a
// bench.ProgramRun without the in-memory programs. Everything any table,
// figure or ablation row derives is here.
type Record struct {
	Workload    string           `json:"workload"`
	Set         int              `json:"set"`
	Opts        pipeline.Options `json:"options"`
	Base        *Measurement     `json:"base"`
	Reord       *Measurement     `json:"reord"`
	StaticBase  int64            `json:"staticBase"`
	StaticReord int64            `json:"staticReord"`
	Seqs        []SeqStat        `json:"seqs"`
}

// Validate rejects records that could not have come from a real run.
func (r *Record) Validate() error {
	switch {
	case r == nil:
		return errors.New("store: nil record")
	case r.Workload == "":
		return errors.New("store: record has no workload name")
	case r.Base == nil || r.Reord == nil:
		return errors.New("store: record missing measurements")
	case r.Set != int(r.Opts.Switch):
		return fmt.Errorf("store: record set %d disagrees with options set %d", r.Set, int(r.Opts.Switch))
	case !bytes.Equal(r.Base.Output, r.Reord.Output):
		// A real run fails the job instead, and an entry stores one output.
		return errors.New("store: record's reordered output differs from its baseline's")
	}
	// An entry omits an empty list or map, which then decodes as nil. A
	// real run leaves them nil too, so an empty one that is not nil is
	// forged, and would not survive a round trip.
	for _, s := range r.Seqs {
		if s.Order != nil && len(s.Order) == 0 || s.Omitted != nil && len(s.Omitted) == 0 {
			return errors.New("store: record holds an empty ordering list")
		}
	}
	return nil
}

// envelope is the on-disk framing of one store entry: R is the encoded
// payload (json.RawMessage) when writing and the *Record when reading.
type envelope[R any] struct {
	Schema int `json:"schema"`
	// Kind is absent from the build entries this store writes. A cache
	// directory filled by an older brbench may also hold entries of two
	// retired kinds, "profile" and "merged-profile", under the same
	// schema; Decode rejects them by this field.
	Kind        string `json:"kind,omitempty"`
	Fingerprint string `json:"fingerprint"`
	Sum         string `json:"sum"`
	Record      R      `json:"record"`
}

// encodeEnvelope frames an already-validated payload as a build entry.
func encodeEnvelope(fp string, payload interface{}) ([]byte, error) {
	body, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sum := sha256.Sum256(body)
	data, err := json.MarshalIndent(envelope[json.RawMessage]{
		Schema:      SchemaVersion,
		Fingerprint: fp,
		Sum:         hex.EncodeToString(sum[:]),
		Record:      body,
	}, "", "\t")
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return append(data, '\n'), nil
}

// Encode serializes rec as the store entry keyed by fp. The outputs are
// equal (Validate checks), so the reordered one is written as null.
func Encode(fp string, rec *Record) ([]byte, error) {
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	stored, reord := *rec, *rec.Reord
	reord.Output = nil
	stored.Reord = &reord
	return encodeEnvelope(fp, &stored)
}

// Decode parses one store entry with its record in one pass, verifies
// schema, kind and fingerprint, then the checksum by re-encoding the
// record into the compact payload encodeEnvelope hashed, and last the
// record itself. The sum so certifies values, not formatting, and a
// record field removed or renamed needs a schema bump. fp, when
// non-empty, must match the fingerprint recorded inside the entry — a
// file renamed to the wrong key is not a usable result. Every malformed
// input yields an error, never a panic; callers treat any error as a
// cache miss.
func Decode(data []byte, fp string) (*Record, error) {
	var env envelope[*Record]
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	rec := env.Record
	switch {
	case env.Schema != SchemaVersion:
		return nil, fmt.Errorf("store: entry schema %d, want %d", env.Schema, SchemaVersion)
	case env.Kind != "":
		return nil, fmt.Errorf("store: entry kind %q, want a build entry", env.Kind)
	case fp != "" && env.Fingerprint != fp:
		return nil, errors.New("store: entry fingerprint does not match its key")
	case rec == nil:
		return nil, errors.New("store: entry has no record")
	}
	body, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if sum := sha256.Sum256(body); hex.EncodeToString(sum[:]) != env.Sum {
		return nil, errors.New("store: payload checksum mismatch")
	}
	if rec.Base == nil || rec.Reord == nil || rec.Reord.Output != nil {
		return nil, errors.New("store: entry lacks a measurement or stores a second output")
	}
	rec.Reord.Output = rec.Base.Output
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	return rec, nil
}

// exportFile frames a list of records as brbench -json writes them, with
// the writing engine's cache counters in the optional Stats.
type exportFile struct {
	Schema  int        `json:"schema"`
	Stats   *TierStats `json:"stats,omitempty"`
	Records []*Record  `json:"records"`
}

// WriteExport serializes records, preserving their order, with stats
// when non-nil. Unlike a build entry, each record keeps both outputs.
func WriteExport(w io.Writer, recs []*Record, stats *TierStats) error {
	for i, rec := range recs {
		if err := rec.Validate(); err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	if err := enc.Encode(exportFile{Schema: SchemaVersion, Stats: stats, Records: recs}); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
