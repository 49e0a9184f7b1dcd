package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"

	"branchreorder/internal/pipeline"
)

// Cross-input merged profiles: the profile wisdom accumulated across
// runs for one (source, frontend, detection) configuration. Each training
// input contributes its exact or sampled counts as one generation-
// stamped entry; consumers fold the contributions with exponential
// decay — a contribution's weight halves every HalfLife generations it
// falls behind the newest one — so old training inputs fade instead of
// dominating forever.
//
// Byte-stability is the design constraint: contributions are kept in
// canonical (train-digest-sorted) order, the fold uses integer
// power-of-two shifts rather than floating-point weights, and the
// record is bounded, so the same set of contributions encodes to the
// same bytes and folds to the same counts regardless of arrival order.

// MaxMergeContribs bounds a merged record. With HalfLife 1 an entry 8
// generations stale is attenuated 256x — effectively gone — so keeping
// more would only grow the record, not the signal. When full, the
// lowest-generation (stalest) contribution is dropped.
const MaxMergeContribs = 8

// MergedContribution is one training input's counts inside a merged
// record.
type MergedContribution struct {
	// TrainDigest content-addresses the training input (SHA-256 hex), so
	// re-training on the same input replaces its contribution instead of
	// double-counting it.
	TrainDigest string `json:"trainDigest"`
	// Generation orders contributions by recency: the newest
	// contribution of a record carries its highest generation. Decay is
	// computed from the distance to the maximum, so generations never
	// need renumbering.
	Generation int           `json:"generation"`
	Profile    ProfileRecord `json:"profile"`
}

// MergedRecord is the serializable merged profile for one
// configuration.
type MergedRecord struct {
	HalfLife int                  `json:"halfLife"`
	Contribs []MergedContribution `json:"contribs"`
}

// TrainDigest content-addresses a training input for contribution
// identity.
func TrainDigest(train []byte) string {
	sum := sha256.Sum256(train)
	return hex.EncodeToString(sum[:])
}

// Validate rejects records that could not have been produced by Merge.
func (r *MergedRecord) Validate() error {
	switch {
	case r == nil:
		return errors.New("store: nil merged record")
	case r.HalfLife < 1:
		return fmt.Errorf("store: merged record half-life %d < 1", r.HalfLife)
	case len(r.Contribs) == 0:
		return errors.New("store: merged record with no contributions")
	case len(r.Contribs) > MaxMergeContribs:
		return fmt.Errorf("store: merged record with %d contributions (max %d)", len(r.Contribs), MaxMergeContribs)
	}
	first := &r.Contribs[0].Profile
	// Count-array lengths must agree across contributions per sequence
	// ID, or the fold would index out of shape; the detection config in
	// the fingerprint guarantees this for honest writers, so a mismatch
	// is corruption or a hostile upload.
	seqLen := map[int]int{}
	orLen := map[int]int{}
	for i := range r.Contribs {
		c := &r.Contribs[i]
		if len(c.TrainDigest) != 64 {
			return fmt.Errorf("store: merged record contribution %d: bad train digest", i)
		}
		if i > 0 && c.TrainDigest <= r.Contribs[i-1].TrainDigest {
			return errors.New("store: merged record contributions not in canonical digest order")
		}
		if c.Generation < 1 {
			return fmt.Errorf("store: merged record contribution %d: generation %d < 1", i, c.Generation)
		}
		if err := c.Profile.Validate(); err != nil {
			return fmt.Errorf("store: merged record contribution %d: %w", i, err)
		}
		if c.Profile.NumSeqs != first.NumSeqs || c.Profile.NumOrSeqs != first.NumOrSeqs {
			return fmt.Errorf("store: merged record contribution %d: detection shape %d/%d, want %d/%d",
				i, c.Profile.NumSeqs, c.Profile.NumOrSeqs, first.NumSeqs, first.NumOrSeqs)
		}
		for _, s := range c.Profile.Seqs {
			if n, ok := seqLen[s.ID]; ok && n != len(s.Counts) {
				return fmt.Errorf("store: merged record: sequence %d count length varies across contributions", s.ID)
			}
			seqLen[s.ID] = len(s.Counts)
		}
		for _, s := range c.Profile.OrSeqs {
			if n, ok := orLen[s.ID]; ok && n != len(s.Combos) {
				return fmt.Errorf("store: merged record: or-sequence %d combo length varies across contributions", s.ID)
			}
			orLen[s.ID] = len(s.Combos)
		}
	}
	return nil
}

// Merge folds one training input's counts into the record: a
// contribution with the same train digest is replaced (and promoted to
// the newest generation — re-training on an input refreshes it), a new
// digest is inserted in canonical order, and the stalest contribution
// is dropped when the record is full. The result is independent of
// arrival order given the same final generation assignment.
func (r *MergedRecord) Merge(digest string, p *ProfileRecord) {
	gen := 0
	for i := range r.Contribs {
		if r.Contribs[i].Generation > gen {
			gen = r.Contribs[i].Generation
		}
	}
	gen++
	for i := range r.Contribs {
		if r.Contribs[i].TrainDigest == digest {
			r.Contribs[i].Generation = gen
			r.Contribs[i].Profile = *p
			return
		}
	}
	r.Contribs = append(r.Contribs, MergedContribution{TrainDigest: digest, Generation: gen, Profile: *p})
	sort.Slice(r.Contribs, func(i, j int) bool { return r.Contribs[i].TrainDigest < r.Contribs[j].TrainDigest })
	if len(r.Contribs) > MaxMergeContribs {
		stalest := 0
		for i := range r.Contribs {
			if r.Contribs[i].Generation < r.Contribs[stalest].Generation {
				stalest = i
			}
		}
		r.Contribs = append(r.Contribs[:stalest], r.Contribs[stalest+1:]...)
	}
}

// Fold collapses the contributions into one training product with
// exponential decay: a contribution d = maxGen − generation behind the
// newest is attenuated by 2^(d/HalfLife) via integer right shifts, then
// the attenuated counts are summed per sequence. Totals are recomputed
// from the summed counts so the count/total invariant holds exactly.
// Contribution order cannot affect the result: addition commutes and
// each contribution's shift depends only on its own generation.
func (r *MergedRecord) Fold() *pipeline.TrainProduct {
	if len(r.Contribs) == 0 {
		return nil
	}
	shift := func(gen, maxGen int) uint {
		s := (maxGen - gen) / r.HalfLife
		if s > 63 {
			s = 63
		}
		if s < 0 {
			s = 0
		}
		return uint(s)
	}
	maxGen := 0
	for i := range r.Contribs {
		if g := r.Contribs[i].Generation; g > maxGen {
			maxGen = g
		}
	}
	acc := ProfileRecord{
		NumSeqs:   r.Contribs[0].Profile.NumSeqs,
		NumOrSeqs: r.Contribs[0].Profile.NumOrSeqs,
	}
	seqAt := map[int]int{}
	orAt := map[int]int{}
	for i := range r.Contribs {
		c := &r.Contribs[i]
		sh := shift(c.Generation, maxGen)
		for _, s := range c.Profile.Seqs {
			at, ok := seqAt[s.ID]
			if !ok {
				at = len(acc.Seqs)
				seqAt[s.ID] = at
				acc.Seqs = append(acc.Seqs, ProfileCounts{ID: s.ID, Counts: make([]uint64, len(s.Counts))})
			}
			dst := &acc.Seqs[at]
			for k, v := range s.Counts {
				dst.Counts[k] += v >> sh
				dst.Total += v >> sh
			}
		}
		for _, s := range c.Profile.OrSeqs {
			at, ok := orAt[s.ID]
			if !ok {
				at = len(acc.OrSeqs)
				orAt[s.ID] = at
				acc.OrSeqs = append(acc.OrSeqs, OrProfileCounts{ID: s.ID, N: s.N, Combos: make([]uint64, len(s.Combos))})
			}
			dst := &acc.OrSeqs[at]
			for k, v := range s.Combos {
				dst.Combos[k] += v >> sh
				dst.Total += v >> sh
			}
		}
	}
	// Contributions carry counts only for executed sequences, so the
	// accumulator's slices follow first-seen order; Train() rebuilds maps
	// where order is irrelevant, but sort for canonical shape anyway.
	sort.Slice(acc.Seqs, func(i, j int) bool { return acc.Seqs[i].ID < acc.Seqs[j].ID })
	sort.Slice(acc.OrSeqs, func(i, j int) bool { return acc.OrSeqs[i].ID < acc.OrSeqs[j].ID })
	return acc.Train()
}

// MergedFingerprint derives the content address of a configuration's
// merged profile. Unlike ProfileFingerprint the training input is
// deliberately absent — accumulating across training inputs is the
// record's purpose — and so is the drift axis (different drift choices
// feed different inputs to the same accumulator). The sampling mode,
// rate, seed and bias all stay in: sampled or biased contributions must
// never poison the exact-profile record.
func MergedFingerprint(source string, fo pipeline.FrontendOptions, d pipeline.DetectOptions) string {
	d.Profile.Drift = 0
	return fingerprintSections(
		section2{"kind", []byte(KindMerged)},
		section2{"source", []byte(source)},
		section2{"frontend", mustJSON(fo)},
		section2{"detect", mustJSON(d)},
	)
}

// EncodeMerged serializes rec as the merged-profile entry keyed by fp.
func EncodeMerged(fp string, rec *MergedRecord) ([]byte, error) {
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	return encodeEnvelope(KindMerged, fp, rec)
}

// DecodeMerged parses one merged-profile entry with the same contract
// as Decode: any malformed input is an error, never a panic, and
// callers treat errors as cache misses.
func DecodeMerged(data []byte, fp string) (*MergedRecord, error) {
	return decodeEnvelope(data, KindMerged, fp, (*MergedRecord).Validate)
}

// GetMerged loads the merged-profile entry for fp; same contract as Get.
func (s *Store) GetMerged(fp string) (*MergedRecord, Status) {
	return get(s, fp, DecodeMerged)
}

// PutMerged writes the merged-profile entry for fp with Put's atomicity.
func (s *Store) PutMerged(fp string, rec *MergedRecord) error {
	data, err := EncodeMerged(fp, rec)
	if err != nil {
		return err
	}
	return s.write(fp, data)
}
