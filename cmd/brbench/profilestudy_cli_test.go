package main

import "testing"

func TestProfileStudyFlagValidation(t *testing.T) {
	for name, args := range map[string][]string{
		"rates without study":         {"-profile-rates", "1,8", "-workloads", "wc"},
		"default rates without study": {"-profile-rates", "1,8,64,512", "-workloads", "wc"},
		"seed without study":          {"-profile-seed", "7", "-workloads", "wc"},
		"default seed without study":  {"-profile-seed", "1", "-workloads", "wc"},
		"study with ablation":         {"-profile-study", "-ablation", "-workloads", "wc"},
		"study with table":            {"-profile-study", "-table", "4", "-workloads", "wc"},
		"study with json":             {"-profile-study", "-json", "x.json", "-workloads", "wc"},
		"garbage rates":               {"-profile-study", "-profile-rates", "1,zap", "-workloads", "wc"},
		"zero rate":                   {"-profile-study", "-profile-rates", "1,0", "-workloads", "wc"},
		"repeated rate":               {"-profile-study", "-profile-rates", "1,1,64", "-workloads", "wc"},
		"no reference rate":           {"-profile-study", "-profile-rates", "8,64", "-workloads", "wc"},
	} {
		if _, _, code := capture(t, args...); code == 0 {
			t.Errorf("%s: accepted", name)
		}
	}
}
