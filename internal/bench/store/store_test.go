package store

import (
	"bytes"
	"encoding/base64"
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
		data, err := encodeEnvelope(KindBuild, fp, payload)
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

func TestExportRoundTrip(t *testing.T) {
	recs := []*Record{testRecord(), testRecord()}
	recs[1].Workload = "sort"
	stats := &TierStats{Builds: 2, DiskHits: 1, DiskMisses: 3, DiskInvalid: 1}
	var buf bytes.Buffer
	if err := WriteExport(&buf, recs, stats); err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := ReadExport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("export round trip changed records")
	}
	if !reflect.DeepEqual(gotStats, stats) {
		t.Errorf("export round trip changed stats: %+v != %+v", gotStats, stats)
	}

	// Exports written without stats (including pre-stats files) read
	// back with nil stats, not zeroes.
	buf.Reset()
	if err := WriteExport(&buf, recs, nil); err != nil {
		t.Fatal(err)
	}
	if _, s, err := ReadExport(&buf); err != nil || s != nil {
		t.Errorf("stats-less export: stats=%+v err=%v, want nil,nil", s, err)
	}
}

func TestTierStatsAdd(t *testing.T) {
	a := TierStats{Builds: 1, Hits: 2, DiskHits: 3, DiskMisses: 4, DiskInvalid: 5,
		BuildSeconds: map[string]float64{"wc": 0.5, "sort": 2}}
	sum := TierStats{Builds: 1, BuildSeconds: map[string]float64{"wc": 0.25}}
	sum.Add(a)
	sum.Add(a)
	want := TierStats{Builds: 3, Hits: 4, DiskHits: 6, DiskMisses: 8, DiskInvalid: 10,
		BuildSeconds: map[string]float64{"wc": 1.25, "sort": 4}}
	if !reflect.DeepEqual(sum, want) {
		t.Errorf("Add: %+v, want %+v", sum, want)
	}

	// Adding a stats value without timings must leave the target's nil.
	var zero TierStats
	zero.Add(TierStats{Builds: 1})
	if zero.BuildSeconds != nil {
		t.Errorf("Add materialized an empty BuildSeconds map")
	}
}

func TestReadExportRejects(t *testing.T) {
	for name, data := range map[string]string{
		"garbage":    "nope",
		"bad schema": `{"schema":99,"records":[]}`,
		"bad record": `{"schema":1,"records":[{"workload":""}]}`,
	} {
		if _, _, err := ReadExport(strings.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
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
