package store

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzStoreDecode drives Decode (and the export reader) with hostile
// inputs: truncated, corrupted, or adversarially-crafted store files
// must come back as errors — i.e. cache misses — never panics and never
// records that fail their own validation.
func FuzzStoreDecode(f *testing.F) {
	// Seed corpus: a valid entry and targeted corruptions of it, plus
	// structurally-interesting JSON.
	fp := testFingerprint()
	good, err := Encode(fp, testRecord())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[:len(good)-3])
	f.Add(bytes.ToUpper(good))
	f.Add(bytes.Replace(good, []byte(fmt.Sprintf(`"schema": %d`, SchemaVersion)), []byte(`"schema": 99`), 1))
	f.Add(bytes.Replace(good, []byte(`"sum"`), []byte(`"sun"`), 1))
	f.Add([]byte(nil))
	f.Add([]byte("{}"))
	f.Add([]byte(`{"schema":1,"fingerprint":"","sum":"","record":null}`))
	f.Add([]byte(`{"schema":1,"fingerprint":"x","sum":"00","record":{}}`))
	f.Add([]byte(`{"schema":1,"records":[{"workload":"wc"}]}`))
	f.Add([]byte(`[1,2,3]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, key := range []string{"", fp} {
			rec, err := Decode(data, key)
			if err != nil {
				continue
			}
			// Whatever decodes must be internally consistent and
			// re-encodable: the store may later serve it.
			if verr := rec.Validate(); verr != nil {
				t.Fatalf("Decode returned an invalid record: %v", verr)
			}
			if _, eerr := Encode(key, rec); eerr != nil {
				t.Fatalf("decoded record does not re-encode: %v", eerr)
			}
		}
		// The shard reader faces the same hostile bytes on -merge.
		if recs, _, err := ReadExport(bytes.NewReader(data)); err == nil {
			for _, rec := range recs {
				if verr := rec.Validate(); verr != nil {
					t.Fatalf("ReadExport returned an invalid record: %v", verr)
				}
			}
		}
	})
}

// FuzzProfileDecode drives the profile-kind decoders with hostile
// inputs: malformed, truncated, or oversized profile and merged-profile
// documents must come back as errors — cache misses — never panics, and
// whatever does decode must survive its own validation and re-encode.
func FuzzProfileDecode(f *testing.F) {
	pfp := profileFP()
	goodProfile, err := EncodeProfile(pfp, FromTrain(sampleTrain()))
	if err != nil {
		f.Fatal(err)
	}
	mrec := &MergedRecord{HalfLife: 1}
	mrec.Merge(TrainDigest([]byte("input-a")), FromTrain(sampleTrain()))
	mrec.Merge(TrainDigest([]byte("input-b")), FromTrain(sampleTrain()))
	mfp := mergedFP()
	goodMerged, err := EncodeMerged(mfp, mrec)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		goodProfile,
		goodMerged,
		goodMerged[:len(goodMerged)/2],
		goodMerged[:len(goodMerged)-3],
		bytes.ToUpper(goodMerged),
		bytes.Replace(goodMerged, []byte(`"halfLife": 1`), []byte(`"halfLife": 0`), 1),
		bytes.Replace(goodMerged, []byte(`"generation": 1`), []byte(`"generation": -7`), 1),
		bytes.Replace(goodMerged, []byte(`"sum"`), []byte(`"sun"`), 1),
		bytes.Replace(goodProfile, []byte(`"kind": "profile"`), []byte(`"kind": "merged-profile"`), 1),
		[]byte(`{"schema":2,"kind":"merged-profile","fingerprint":"","sum":"","record":null}`),
		[]byte(`{"schema":2,"kind":"profile","fingerprint":"x","sum":"00","record":{}}`),
		nil,
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, key := range []string{"", pfp, mfp} {
			if rec, err := DecodeProfile(data, key); err == nil {
				if verr := rec.Validate(); verr != nil {
					t.Fatalf("DecodeProfile returned an invalid record: %v", verr)
				}
				if _, eerr := EncodeProfile(key, rec); eerr != nil {
					t.Fatalf("decoded profile does not re-encode: %v", eerr)
				}
			}
			if rec, err := DecodeMerged(data, key); err == nil {
				if verr := rec.Validate(); verr != nil {
					t.Fatalf("DecodeMerged returned an invalid record: %v", verr)
				}
				if _, eerr := EncodeMerged(key, rec); eerr != nil {
					t.Fatalf("decoded merged record does not re-encode: %v", eerr)
				}
				if rec.Fold() == nil {
					t.Fatal("validated merged record folds to nothing")
				}
			}
		}
	})
}
