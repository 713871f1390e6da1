package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestWorkloadsSmoke runs every workload at the tiny scale, untraced and
// traced, through the compiled command, and checks that it exits 0,
// passes every oracle check and prints exactly the metrics BENCHMARK.json
// names for that kind of run.
func TestWorkloadsSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	spec := readBenchmarkJSON(t)
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				cmd := exec.Command(bin, "--workload", w.Name, "--seed", "3", "--seconds", "1",
					"--trace", trace, "--scale", "tiny")
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("%v\nstdout:\n%s\nstderr:\n%s", err, out, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out)
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Fatalf("metric %s missing or unit %q, want %q", d.Name, m.Unit, d.Unit)
					}
					if trace == "0" && !(m.Value > 0) {
						t.Fatalf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
			})
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the tests check.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []metricDef `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestCatalogMatchesBenchmarkJSON keeps the metric catalog the command
// prints and the repository's BENCHMARK.json in step, and every
// workload in it runnable.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	spec := readBenchmarkJSON(t)
	for _, c := range []struct {
		name      string
		got, want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, catalog %d", c.name, len(c.got), len(c.want))
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalog %+v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
}
