package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"branchreorder/internal/core"
	"branchreorder/internal/interp"
	"branchreorder/internal/lower"
	"branchreorder/internal/pipeline"
	"branchreorder/internal/profile"
)

// testRecord is a synthetic but fully-populated record; the output holds
// invalid UTF-8 on purpose, to prove serialization is byte-lossless.
func testRecord() *Record {
	return &Record{
		Workload: "wc",
		Set:      int(lower.SetI),
		Opts:     pipeline.Options{Switch: lower.SetI, Optimize: true},
		Base: &Measurement{
			Stats:       interp.Stats{Insts: 123456, CondBranches: 789, TakenBranches: 400, SlotNops: 7},
			Output:      []byte("42 lines\xff\xfe\x00raw"),
			Ret:         0,
			Mispredicts: map[string]uint64{"(0,2)x2048": 55, "(0,1)x32": 99},
			Cycles:      map[string]uint64{"SPARC Ultra I": 130000},
		},
		Reord: &Measurement{
			Stats:       interp.Stats{Insts: 120000, CondBranches: 700},
			Output:      []byte("42 lines\xff\xfe\x00raw"),
			Ret:         0,
			Mispredicts: map[string]uint64{"(0,2)x2048": 60, "(0,1)x32": 90},
			Cycles:      map[string]uint64{"SPARC Ultra I": 128000},
		},
		StaticBase:  500,
		StaticReord: 520,
		Seqs: []SeqStat{
			{Applied: true, OrigBranches: 4, NewBranches: 3},
			{Applied: false, OrigBranches: 2, NewBranches: 0},
		},
	}
}

func testFingerprint() string {
	return Fingerprint("int main() {}", []byte("train"), []byte("test"),
		pipeline.Options{Switch: lower.SetI, Optimize: true})
}

// retiredEntries holds one entry of each kind the store no longer
// writes, "profile" and "merged-profile", as a brbench from before their
// retirement left them in a cache directory (indentation aside).
var retiredEntries = []struct{ kind, fp, data string }{
	{"profile", "54d59235e8847db8c8f864163da53cff71631b70e98b59d124a2b26c4e8433f9", `{"schema": 3, "kind": "profile",
	"fingerprint": "54d59235e8847db8c8f864163da53cff71631b70e98b59d124a2b26c4e8433f9",
	"sum": "7f4a44e4c513f4d6f33459b73ff118bf31648891dc855c0ea4456522c7cf63c0",
	"record": {"numSeqs": 1, "numOrSeqs": 1,
		"seqs": [{"id": 0, "total": 10, "counts": [3, 5, 2]}],
		"orSeqs": [{"id": 1, "n": 2, "total": 10, "combos": [1, 2, 3, 4]}]}}
`},
	{"merged-profile", "73bf1378b138873dfd82e31a3ebc3e0d6b18f3e5bccda2c377449d5c3fda41df", `{"schema": 3, "kind": "merged-profile",
	"fingerprint": "73bf1378b138873dfd82e31a3ebc3e0d6b18f3e5bccda2c377449d5c3fda41df",
	"sum": "4aaa57827d7cfdea94823387aff50b7541eb1b8cf161fd20eb2915427791845c",
	"record": {"halfLife": 1, "contribs": [{
		"trainDigest": "410ea61566cc3693b1be7afd1a77f2597a9164c4a7b3bca5c5522cec9fcdaa04",
		"generation": 1,
		"profile": {"numSeqs": 1, "numOrSeqs": 1,
			"seqs": [{"id": 0, "total": 10, "counts": [3, 5, 2]}],
			"orSeqs": [{"id": 1, "n": 2, "total": 10, "combos": [1, 2, 3, 4]}]}}]}}
`},
}

// relabel marks a build entry as one of another kind. Its record and
// sum stay valid, so only the kind check can reject it.
func relabel(entry []byte, kind string) []byte {
	schema := fmt.Sprintf(`"schema": %d,`, SchemaVersion)
	return bytes.Replace(entry, []byte(schema), []byte(fmt.Sprintf(`%s "kind": %q,`, schema, kind)), 1)
}

// The on-disk contract: the fingerprint of one fixed job under plain and
// under sampled, drifted options, and the SHA-256 of the entry Encode
// writes for it. Changing any of them renames or rewrites every entry an
// existing cache directory holds, so it needs a SchemaVersion bump and
// new constants here.
func TestOnDiskContractPinned(t *testing.T) {
	src, train, test := "int main() { return 0; }", []byte("train"), []byte("test")
	plain := pipeline.Options{Switch: lower.SetII, Optimize: true}
	sampled := plain
	sampled.Profile = profile.Config{Mode: profile.EveryNth, Rate: 8, Seed: 1, Drift: profile.DriftNone}
	fp := Fingerprint(src, train, test, plain)
	for _, c := range []struct{ name, got, want string }{
		{"plain", fp, "0aa19baed9c47bb6025a5ef3db7f463b35e49f4365f489fb4bba6b7d5c44a1b4"},
		{"sampled", Fingerprint(src, train, test, sampled), "221e037bd64200347643eb2ed3224c01b359a318872b0a1fe7e31075ec1cfa3a"},
	} {
		if c.got != c.want {
			t.Errorf("%s fingerprint = %s, want %s", c.name, c.got, c.want)
		}
	}
	data, err := Encode(fp, testRecord())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got, want := hex.EncodeToString(sum[:]), "7e22a3c87975de9861ab1b093e5df924b7572e2e497eb14c631872c5891d7340"; got != want {
		t.Errorf("entry SHA-256 = %s, want %s", got, want)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	fp := testFingerprint()
	empty := testRecord()
	empty.Base.Output, empty.Reord.Output = []byte{}, []byte{}
	for name, rec := range map[string]*Record{"binary output": testRecord(), "empty output": empty} {
		data, err := Encode(fp, rec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The entry holds the output once: the baseline's, base64.
		out := fmt.Sprintf(`"output": %q`, base64.StdEncoding.EncodeToString(rec.Base.Output))
		if n := bytes.Count(data, []byte(out)); n != 1 {
			t.Errorf("%s: entry holds the output %d times, want once", name, n)
		}
		got, err := Decode(data, fp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Errorf("%s: round trip changed the record:\ngot  %+v\nwant %+v", name, got, rec)
		}
		if !bytes.Equal(got.Base.Output, rec.Base.Output) || !bytes.Equal(got.Reord.Output, rec.Reord.Output) {
			t.Errorf("%s: binary output not byte-identical after round trip", name)
		}
	}

	// No real run has two outputs: such a record is not stored.
	differ := testRecord()
	differ.Reord.Output = []byte("41 lines")
	if _, err := Encode(fp, differ); err == nil {
		t.Error("record with differing outputs encoded")
	}
}

func TestDecodeRejectsBadEntries(t *testing.T) {
	rec, fp := testRecord(), testFingerprint()
	good, err := Encode(fp, rec)
	if err != nil {
		t.Fatal(err)
	}
	b64 := base64.StdEncoding.EncodeToString(rec.Base.Output)
	mid := len(b64) / 2
	flip := "A"
	if b64[mid] == 'A' {
		flip = "B"
	}
	// Entries whose sum is valid for what they hold, written past Encode.
	framed := func(payload any) []byte {
		t.Helper()
		data, err := encodeEnvelope(fp, payload)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	withFusion := testRecord()
	withFusion.Base.Fusion = &interp.FusionStats{Ops: 9}
	fused, err := Encode(fp, withFusion)
	if err != nil {
		t.Fatal(err)
	}
	// As Encode stores rec: the reordered output is null.
	stored, reord := *rec, *rec.Reord
	reord.Output = nil
	stored.Reord = &reord
	if !bytes.Equal(framed(&stored), good) {
		t.Fatal("Encode does not frame the record as stored")
	}
	noBase, noReord, twoOutputs, second := stored, stored, stored, reord
	noBase.Base, noReord.Reord = nil, nil
	second.Output = []byte("41 lines")
	twoOutputs.Reord = &second

	cases := map[string][]byte{
		"empty":      nil,
		"garbage":    []byte("not json at all"),
		"half json":  good[:len(good)/2],
		"truncated":  good[:len(good)-10],
		"bit flip":   bytes.Replace(good, []byte(`"wc"`), []byte(`"Wc"`), 1),
		"emptied":    []byte("{}"),
		"bad schema": bytes.Replace(good, []byte(fmt.Sprintf(`"schema": %d`, SchemaVersion)), []byte(`"schema": 99`), 1),
		// Each changes one decoded value under the old sum.
		"stats digit":  bytes.Replace(good, []byte(`"Insts": 123456`), []byte(`"Insts": 123457`), 1),
		"output char":  bytes.Replace(good, []byte(b64), []byte(b64[:mid]+flip+b64[mid+1:]), 1),
		"mispredicts":  bytes.Replace(good, []byte(`"(0,2)x2048": 55`), []byte(`"(0,2)x2048": 56`), 1),
		"reord output": bytes.Replace(good, []byte(`"output": null`), []byte(`"output": "NDEgbGluZXM="`), 1),
		// Each adds an empty list or map that a real run leaves nil.
		"empty order":    bytes.Replace(good, []byte(`"applied": true,`), []byte(`"applied": true, "order": [],`), 1),
		"empty patterns": bytes.Replace(fused, []byte(`"fusion": {`), []byte(`"fusion": {"patterns": {},`), 1),
		// Each has a valid sum but is no record Encode writes.
		"null record":     framed(nil),
		"no base":         framed(&noBase),
		"no reord":        framed(&noReord),
		"stored 2 output": framed(&twoOutputs),
	}
	for name, data := range cases {
		if bytes.Equal(data, good) {
			t.Fatalf("%s: the case does not change the entry", name)
		}
		if _, err := Decode(data, fp); err == nil {
			t.Errorf("%s: decoded successfully", name)
		}
	}
	// The sum certifies values, not bytes: unchanged values decode.
	var reindented bytes.Buffer
	if err := json.Indent(&reindented, good, "", "  "); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"re-indented": reindented.Bytes(),
		"unknown key": bytes.Replace(good, []byte(`"record": {`), []byte(`"record": {"note": "added after the sum",`), 1),
	} {
		if got, err := Decode(data, fp); err != nil || !reflect.DeepEqual(got, rec) {
			t.Errorf("%s: Decode = %+v, %v; want the record", name, got, err)
		}
	}
	// A valid entry filed under the wrong key is not a usable result.
	if _, err := Decode(good, strings.Repeat("ab", 32)); err == nil {
		t.Error("fingerprint mismatch accepted")
	}
	// The empty fingerprint skips only the key check, nothing else.
	if _, err := Decode(good, ""); err != nil {
		t.Errorf("decode without key check failed: %v", err)
	}
}

func TestStorePutGet(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec, fp := testRecord(), testFingerprint()

	if got, st := s.Get(fp); st != Miss || got != nil {
		t.Fatalf("empty store Get = %v, %v; want nil, miss", got, st)
	}
	if err := s.Put(fp, rec); err != nil {
		t.Fatal(err)
	}
	got, st := s.Get(fp)
	if st != Hit {
		t.Fatalf("Get after Put = %v, want hit", st)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Errorf("stored record differs:\ngot  %+v\nwant %+v", got, rec)
	}

	// Overwrite is idempotent.
	if err := s.Put(fp, rec); err != nil {
		t.Fatal(err)
	}
	if _, st := s.Get(fp); st != Hit {
		t.Errorf("Get after second Put = %v, want hit", st)
	}

	// No orphaned temp files after successful Puts.
	var leftovers []string
	filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.Contains(d.Name(), ".tmp") {
			leftovers = append(leftovers, path)
		}
		return nil
	})
	if len(leftovers) > 0 {
		t.Errorf("temp files left behind: %v", leftovers)
	}
}

func TestStoreCorruptEntryIsInvalid(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec, fp := testRecord(), testFingerprint()
	if err := s.Put(fp, rec); err != nil {
		t.Fatal(err)
	}
	path := s.path(fp)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"truncated": data[:len(data)/3],
		"flipped":   bytes.Replace(data, []byte("123456"), []byte("654321"), 1),
		"empty":     {},
	} {
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, st := s.Get(fp); st != Invalid || got != nil {
			t.Errorf("%s entry: Get = %v, %v; want nil, invalid", name, got, st)
		}
	}
	// Rewriting heals it.
	if err := s.Put(fp, rec); err != nil {
		t.Fatal(err)
	}
	if _, st := s.Get(fp); st != Hit {
		t.Errorf("Get after heal = %v, want hit", st)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := testFingerprint()
	if base != testFingerprint() {
		t.Fatal("fingerprint not deterministic")
	}
	if len(base) != 64 {
		t.Fatalf("fingerprint length %d, want 64 hex chars", len(base))
	}
	opts := pipeline.Options{Switch: lower.SetI, Optimize: true}
	for name, fp := range map[string]string{
		"source":  Fingerprint("int main() { }", []byte("train"), []byte("test"), opts),
		"train":   Fingerprint("int main() {}", []byte("train2"), []byte("test"), opts),
		"test":    Fingerprint("int main() {}", []byte("train"), []byte("test2"), opts),
		"options": Fingerprint("int main() {}", []byte("train"), []byte("test"), pipeline.Options{Switch: lower.SetII, Optimize: true}),
		"ablation": Fingerprint("int main() {}", []byte("train"), []byte("test"),
			pipeline.Options{Switch: lower.SetI, Optimize: true,
				Transform: core.TransformOptions{NoBoundOrder: true}}),
	} {
		if fp == base {
			t.Errorf("changing %s did not change the fingerprint", name)
		}
	}
	// Length-prefixed sections: moving a byte across a boundary differs.
	a := Fingerprint("ab", []byte("c"), nil, opts)
	b := Fingerprint("a", []byte("bc"), nil, opts)
	if a == b {
		t.Error("section boundaries are ambiguous")
	}
}

// A -json dump holds every record, both outputs included, and the
// stats it was given, and reads back unchanged.
func TestExportRoundTrip(t *testing.T) {
	recs := []*Record{testRecord(), testRecord()}
	recs[1].Workload = "sort"
	stats := &TierStats{Builds: 2, DiskHits: 1, DiskMisses: 3, DiskInvalid: 1}
	for _, st := range []*TierStats{stats, nil} {
		var buf bytes.Buffer
		if err := WriteExport(&buf, recs, st); err != nil {
			t.Fatal(err)
		}
		var got exportFile
		if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if got.Schema != SchemaVersion || !reflect.DeepEqual(got.Records, recs) {
			t.Errorf("export round trip changed the records")
		}
		if !reflect.DeepEqual(got.Stats, st) {
			t.Errorf("export round trip changed stats: %+v != %+v", got.Stats, st)
		}
	}
	bad := testRecord()
	bad.Workload = ""
	if err := WriteExport(&bytes.Buffer{}, []*Record{bad}, nil); err == nil {
		t.Error("export of an invalid record succeeded")
	}
}

// Decode serves build entries only: it rejects the retired kinds an
// older cache directory may hold, and a build entry relabelled as one of
// them, whose record and sum are valid.
func TestEntryKindDispatch(t *testing.T) {
	fp := testFingerprint()
	good, err := Encode(fp, testRecord())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(good, fp); err != nil {
		t.Fatalf("build entry: %v", err)
	}
	for _, e := range retiredEntries {
		for name, c := range map[string]struct {
			data []byte
			fp   string
		}{
			"stored":     {[]byte(e.data), e.fp},
			"relabelled": {relabel(good, e.kind), fp},
		} {
			if _, err := Decode(c.data, c.fp); err == nil {
				t.Errorf("%s %s entry decoded as a build entry", name, e.kind)
			}
		}
	}
}

// The export format must stay JSON-parseable by external tooling:
// spot-check the envelope keys.
func TestExportIsPlainJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteExport(&buf, []*Record{testRecord()}, nil); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["schema"] != float64(SchemaVersion) {
		t.Errorf("schema key = %v", doc["schema"])
	}
	if _, ok := doc["records"].([]any); !ok {
		t.Errorf("records key missing or not a list")
	}
}
