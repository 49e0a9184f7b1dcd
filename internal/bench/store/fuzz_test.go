package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// roundTrip requires a decoded record to survive its own validation and
// a full round trip: the store may later serve it, so it must re-encode
// to an entry that decodes to the same record.
func roundTrip(t *testing.T, key string, rec *Record) {
	t.Helper()
	if err := rec.Validate(); err != nil {
		t.Fatalf("decoded an invalid record: %v", err)
	}
	data, err := Encode(key, rec)
	if err != nil {
		t.Fatalf("decoded record does not re-encode: %v", err)
	}
	back, err := Decode(data, key)
	if err != nil {
		t.Fatalf("re-encoded record does not decode: %v", err)
	}
	if !reflect.DeepEqual(back, rec) {
		t.Fatalf("round trip changed the record:\ngot  %+v\nwant %+v", back, rec)
	}
}

// FuzzStoreDecode drives Decode with hostile inputs: truncated,
// corrupted, or adversarially-crafted store files must come back as
// errors — i.e. cache misses — never panics, and whatever does decode
// must round-trip through Encode unchanged.
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
				roundTrip(t, key, rec)
			}
		}
	})
}

// readSeed returns the input a checked-in fuzz corpus file holds.
func readSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, value, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	lit, isBytes := strings.CutPrefix(value, "[]byte(")
	if !ok || header != "go test fuzz v1" || !isBytes || !strings.HasSuffix(lit, ")") {
		t.Fatalf("%s: not a one-value []byte corpus file", path)
	}
	data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(data)
}

// The checked-in FuzzStoreDecode seeds must reach the paths they are
// named for. Only seed-badschema may stop at the schema check, and
// seed-valid must decode and round-trip, so a schema bump that leaves
// the seeds behind fails here.
func TestCheckedInSeedsPassTheSchemaCheck(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzStoreDecode")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		seen[name] = true
		rec, err := Decode(readSeed(t, filepath.Join(dir, name)), "")
		atSchema := err != nil && strings.Contains(err.Error(), "entry schema")
		switch name {
		case "seed-badschema":
			if !atSchema {
				t.Errorf("%s: %v, want a schema error", name, err)
			}
		case "seed-valid":
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			roundTrip(t, "", rec)
		default:
			if atSchema {
				t.Errorf("%s stops at the schema check: %v", name, err)
			}
		}
	}
	if !seen["seed-valid"] || !seen["seed-badschema"] {
		t.Errorf("corpus lacks seed-valid or seed-badschema: %v", seen)
	}
}

// FuzzProfileDecode drives Decode with entries of the retired profile
// kinds, as an older cache directory holds them, and with build entries
// relabelled as those kinds, plus hostile variants of each: Decode must
// never panic, never accept an entry that names a kind, and whatever it
// accepts must round-trip through Encode unchanged.
func FuzzProfileDecode(f *testing.F) {
	fp := testFingerprint()
	good, err := Encode(fp, testRecord())
	if err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{relabel(good, "profile"), relabel(good, "merged-profile")}
	for _, e := range retiredEntries {
		seeds = append(seeds, []byte(e.data))
	}
	for _, seed := range seeds {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(bytes.ToUpper(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var env struct {
			Kind string `json:"kind"`
		}
		named := json.Unmarshal(data, &env) == nil && env.Kind != ""
		for _, key := range []string{"", fp} {
			if rec, err := Decode(data, key); err == nil {
				if named {
					t.Fatalf("Decode accepted an entry of kind %q", env.Kind)
				}
				roundTrip(t, key, rec)
			}
		}
	})
}
