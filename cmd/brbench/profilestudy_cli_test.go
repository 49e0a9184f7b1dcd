package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// The profile study must shard and merge like the suite and the
// ablation: the merged table byte-identical to the direct one, with
// zero rebuilds, and the stage summary must surface the sampled
// training runs.
func TestProfileStudyShardMergeMatchesDirect(t *testing.T) {
	dir := t.TempDir()
	p0, p1 := filepath.Join(dir, "p0.json"), filepath.Join(dir, "p1.json")
	base := []string{"-q", "-profile-study", "-profile-rates", "1,64", "-workloads", "wc,sort"}

	direct, dstderr, code := capture(t, base[1:]...)
	if code != 0 {
		t.Fatalf("direct study exited %d: %s", code, dstderr)
	}
	if !strings.Contains(dstderr, "sampled training runs") {
		t.Errorf("summary does not count sampled training runs: %q", dstderr)
	}
	if _, _, code := capture(t, append(base, "-shard", "0/2", "-export", p0)...); code != 0 {
		t.Fatalf("shard 0/2 exited %d", code)
	}
	if _, _, code := capture(t, append(base, "-shard", "1/2", "-export", p1)...); code != 0 {
		t.Fatalf("shard 1/2 exited %d", code)
	}
	merged, stderr, code := capture(t, "-profile-study", "-profile-rates", "1,64",
		"-workloads", "wc,sort", "-merge", p0+","+p1)
	if code != 0 {
		t.Fatalf("merge exited %d: %s", code, stderr)
	}
	if merged != direct {
		t.Errorf("merged study differs from direct study:\n--- merged ---\n%s\n--- direct ---\n%s", merged, direct)
	}
	if !strings.Contains(stderr, "brbench: 0 builds") {
		t.Errorf("merge rebuilt jobs the shards already measured: %q", stderr)
	}
}

func TestProfileStudyFlagValidation(t *testing.T) {
	for name, args := range map[string][]string{
		"rates without study": {"-profile-rates", "1,8", "-workloads", "wc"},
		"seed without study":  {"-profile-seed", "7", "-workloads", "wc"},
		"bias without study":  {"-profile-bias", "5", "-workloads", "wc"},
		"study with ablation": {"-profile-study", "-ablation", "-workloads", "wc"},
		"study with table":    {"-profile-study", "-table", "4", "-workloads", "wc"},
		"study with json":     {"-profile-study", "-json", "x.json", "-workloads", "wc"},
		"study with merge":    {"-profile-study", "-profile-merge", "-workloads", "wc"},
		"merge without store": {"-profile-merge", "-workloads", "wc"},
		"garbage rates":       {"-profile-study", "-profile-rates", "1,zap", "-workloads", "wc"},
		"zero rate":           {"-profile-study", "-profile-rates", "1,0", "-workloads", "wc"},
		"repeated rate":       {"-profile-study", "-profile-rates", "1,1,64", "-workloads", "wc"},
		"no reference rate":   {"-profile-study", "-profile-rates", "8,64", "-workloads", "wc"},
	} {
		if _, _, code := capture(t, args...); code == 0 {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Two -profile-merge runs over one cache directory accumulate profile
// wisdom: the second run's fresh training runs fold in the first run's
// contributions and say so in the stage summary.
func TestProfileMergeWarmStart(t *testing.T) {
	dir := t.TempDir()
	if _, stderr, code := capture(t, "-workloads", "wc", "-cache-dir", dir, "-profile-merge"); code != 0 {
		t.Fatalf("first run exited %d: %s", code, stderr)
	}
	// The ablation trains the same detection configuration over variants
	// the whole-build tier has not seen, so it must reuse the suite
	// run's merged profiles.
	_, stderr, code := capture(t, "-workloads", "wc", "-cache-dir", dir, "-profile-merge", "-ablation")
	if code != 0 {
		t.Fatalf("second run exited %d: %s", code, stderr)
	}
	if !strings.Contains(stderr, "merged-profile reuses") {
		t.Errorf("warm run did not reuse merged profiles: %q", stderr)
	}
}
