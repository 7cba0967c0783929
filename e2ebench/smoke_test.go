package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// smokeConfig shrinks every workload: a 1 MiB bulk input and 8 ingest
// requests of small bodies.
func smokeConfig(t *testing.T) config {
	cfg := defaultConfig()
	cfg.seed = 7
	cfg.seconds = 0
	cfg.out = t.TempDir()
	cfg.bulkBytes = 1 << 20
	cfg.bodyBytes = 64 << 10
	cfg.minRequests = 8
	cfg.variants = 2
	return cfg
}

// TestSmoke runs every workload untraced and traced at tiny sizes and
// checks that every metric of the run's kind is emitted with its unit
// or named absent with a reason, and that the result line carries
// exactly the contract metrics.
func TestSmoke(t *testing.T) {
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadOrder {
		for _, trace := range []bool{false, true} {
			cfg := smokeConfig(t)
			cfg.trace = trace
			t.Run(name+map[bool]string{false: "/e2e", true: "/traced"}[trace], func(t *testing.T) {
				r, err := workloads[name](cfg)
				if err != nil {
					t.Fatal(err)
				}
				var report, last bytes.Buffer
				printReport(&report, cat, cfg, r)
				if err := printResultLine(&last, cat, cfg, r); err != nil {
					t.Fatal(err)
				}
				if !r.correct || r.failed != 0 || r.attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", r.correct, r.failed, r.attempted, report.String())
				}
				contract := 0
				for _, m := range cat.Metrics {
					if m.Kind != kind(cfg) {
						continue
					}
					v, ok := r.metrics[m.Name]
					switch {
					case ok && (math.IsNaN(v) || math.IsInf(v, 0) || v < 0):
						t.Errorf("%s = %v", m.Name, v)
					case ok && !strings.Contains(report.String(), m.Unit):
						t.Errorf("%s printed without its unit %s", m.Name, m.Unit)
					case !ok && r.absent[m.Name] == "":
						t.Errorf("%s neither emitted nor named absent with a reason", m.Name)
					case !ok && m.Contract:
						t.Errorf("contract metric %s is absent: %s", m.Name, r.absent[m.Name])
					}
					if !strings.Contains(report.String(), m.Name) {
						t.Errorf("report does not name %s", m.Name)
					}
					if m.Contract {
						contract++
					}
				}
				var line resultLine
				dec := json.NewDecoder(&last)
				dec.DisallowUnknownFields()
				if err := dec.Decode(&line); err != nil {
					t.Fatalf("result line: %v", err)
				}
				if len(line.Metrics) != contract {
					t.Errorf("result line has %d metrics, want the %d contract metrics", len(line.Metrics), contract)
				}
				for n, v := range line.Metrics {
					if v.Value != r.metrics[n] {
						t.Errorf("result line %s = %v, measured %v", n, v.Value, r.metrics[n])
					}
				}
			})
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the
// catalog's workloads and contract metrics, with the same units,
// directions and reasons.
func TestBenchmarkJSON(t *testing.T) {
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bench struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(cat.Workloads) {
		t.Fatalf("%d workloads, catalog has %d", len(bench.Workloads), len(cat.Workloads))
	}
	for i, w := range cat.Workloads {
		if bench.Workloads[i].Name != w.Name || bench.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, catalog %+v", i, bench.Workloads[i], w)
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	listed := map[string][]entry{"end_to_end": bench.EndToEnd, "per_layer": bench.PerLayer}
	for k, entries := range listed {
		byName := make(map[string]entry)
		for _, e := range entries {
			byName[e.Name] = e
			if (k == "end_to_end") != (e.Bound != nil) {
				t.Errorf("%s: bound %v in %s", e.Name, e.Bound, k)
			}
		}
		n := 0
		for _, m := range cat.Metrics {
			if m.Kind != k || !m.Contract {
				continue
			}
			n++
			e, ok := byName[m.Name]
			if !ok {
				t.Errorf("%s %s missing from BENCHMARK.json", k, m.Name)
				continue
			}
			if e.Unit != m.Unit || e.Better != m.Better {
				t.Errorf("%s: BENCHMARK.json %s/%s, catalog %s/%s", m.Name, e.Unit, e.Better, m.Unit, m.Better)
			}
		}
		if n != len(entries) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, catalog has %d contract ones", len(entries), k, n)
		}
	}
}
