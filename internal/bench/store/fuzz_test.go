package store

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// roundTrip requires a decoded record to survive its own validation and
// a full round trip: the store may later serve it, so it must re-encode
// to an entry that decodes to the same record.
func roundTrip[T any](t *testing.T, key string, rec *T, validate func(*T) error,
	encode func(string, *T) ([]byte, error), decode func([]byte, string) (*T, error)) {
	t.Helper()
	if err := validate(rec); err != nil {
		t.Fatalf("decoded an invalid %T: %v", rec, err)
	}
	data, err := encode(key, rec)
	if err != nil {
		t.Fatalf("decoded %T does not re-encode: %v", rec, err)
	}
	back, err := decode(data, key)
	if err != nil {
		t.Fatalf("re-encoded %T does not decode: %v", rec, err)
	}
	if !reflect.DeepEqual(back, rec) {
		t.Fatalf("round trip changed the %T:\ngot  %+v\nwant %+v", rec, back, rec)
	}
}

// FuzzStoreDecode drives Decode (and the export reader) with hostile
// inputs: truncated, corrupted, or adversarially-crafted store files
// must come back as errors — i.e. cache misses — never panics, and
// whatever does decode must round-trip through Encode unchanged.
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
	f.Add([]byte(fmt.Sprintf(`{"schema":%d,"fingerprint":"","sum":"","record":null}`, SchemaVersion)))
	f.Add([]byte(fmt.Sprintf(`{"schema":%d,"fingerprint":"x","sum":"00","record":{}}`, SchemaVersion)))
	f.Add([]byte(`{"schema":1,"records":[{"workload":"wc"}]}`))
	f.Add([]byte(`[1,2,3]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, key := range []string{"", fp} {
			if rec, err := Decode(data, key); err == nil {
				roundTrip(t, key, rec, (*Record).Validate, Encode, Decode)
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
// whatever does decode must round-trip through its encoder unchanged.
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
		[]byte(fmt.Sprintf(`{"schema":%d,"kind":"merged-profile","fingerprint":"","sum":"","record":null}`, SchemaVersion)),
		[]byte(fmt.Sprintf(`{"schema":%d,"kind":"profile","fingerprint":"x","sum":"00","record":{}}`, SchemaVersion)),
		nil,
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, key := range []string{"", pfp, mfp} {
			if rec, err := DecodeProfile(data, key); err == nil {
				roundTrip(t, key, rec, (*ProfileRecord).Validate, EncodeProfile, DecodeProfile)
			}
			if rec, err := DecodeMerged(data, key); err == nil {
				roundTrip(t, key, rec, (*MergedRecord).Validate, EncodeMerged, DecodeMerged)
				if rec.Fold() == nil {
					t.Fatal("validated merged record folds to nothing")
				}
			}
		}
	})
}
