package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// declared is the part of BENCHMARK.json the self-tests check against.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// tiny is a run small enough for a unit test: 50 tuples per relation,
// one set-up, half a second of load.
func tiny(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 0.5, trace: trace,
		workdir: t.TempDir(), tuples: 50, setups: 1}
}

func TestWorkloadsMatchDeclaration(t *testing.T) {
	var names []string
	for _, w := range readDeclared(t).Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if len(names) != len(have) {
		t.Fatalf("BENCHMARK.json declares %v, the benchmark runs %v", names, have)
	}
	for i := range names {
		if names[i] != have[i] {
			t.Fatalf("BENCHMARK.json declares %v, the benchmark runs %v", names, have)
		}
	}
}

// TestTinyRunsEmitEveryMetric runs every workload untraced and traced at
// a tiny size: all checks must pass and the result must carry exactly
// the declared metrics with their declared units.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	d := readDeclared(t)
	for w := range workloads {
		for _, trace := range []bool{false, true} {
			res, rep, err := run(tiny(t, w, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d problems=%v", w, trace, res.Correct, res.Failed, rep.problems)
			}
			if res.Attempted < 1 {
				t.Fatalf("%s trace=%v: attempted %d", w, trace, res.Attempted)
			}
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, %d declared", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %s, declared %s", w, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v", w, m.Name, got.Value)
				}
			}
		}
	}
}

// TestOracleCatchesCorruptMembership removes one member from the
// oracle's answer for a view; every workload's check must then fail, so
// the checks cannot pass vacuously.
func TestOracleCatchesCorruptMembership(t *testing.T) {
	for w := range workloads {
		cfg := tiny(t, w, false)
		cfg.corrupt = true
		res, rep, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Correct || len(rep.problems) == 0 {
			t.Errorf("%s: corrupted oracle answer went unnoticed", w)
		}
	}
}

func TestRunStats(t *testing.T) {
	var ss []sample
	for i := 0; i < 5000; i++ {
		ss = append(ss, sample{end: int64(i+1) * 1e6, us: float64(i%100 + 1)})
	}
	p50, p99, tput := runStats(ss, 5)
	if p50 != 50 || p99 != 99 {
		t.Errorf("p50 %v p99 %v, want 50 and 99", p50, p99)
	}
	if tput != 1000 {
		t.Errorf("tput %v, want 1000/s", tput)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}}
	if got := covered(parent, kids); got != 40 {
		t.Errorf("covered %v, want 40", got)
	}
}
