package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

// declared is BENCHMARK.json's metric list.
type declared struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

// TestMinimalRuns runs every workload at minimal size, untraced and
// traced, and checks the result line: exactly the four keys, the checks
// passed, and every metric BENCHMARK.json declares for that mode printed
// with its declared unit and nothing else.
func TestMinimalRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds vcfrd and simulates")
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec declared
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	vcfrd := filepath.Join(t.TempDir(), "vcfrd")
	if out, err := exec.Command("go", "build", "-o", vcfrd, "vcfr/cmd/vcfrd").CombinedOutput(); err != nil {
		t.Fatalf("build vcfrd: %v\n%s", err, out)
	}
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				var out bytes.Buffer
				err := run([]string{"--workload", w.Name, "--seed", "42", "--seconds", "1", "--trace", trace,
					"-small", "-root", "..", "-vcfrd", vcfrd, "-spans", t.TempDir()}, &out)
				if err != nil {
					t.Fatal(err)
				}
				lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
				var res map[string]json.RawMessage
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					t.Fatal(err)
				}
				if got := sortedKeys(res); len(got) != 4 || got[0] != "attempted" || got[1] != "correct" || got[2] != "failed" || got[3] != "metrics" {
					t.Fatalf("result keys %v", got)
				}
				var r struct {
					Correct   bool              `json:"correct"`
					Attempted int               `json:"attempted"`
					Failed    int               `json:"failed"`
					Metrics   map[string]metric `json:"metrics"`
				}
				if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\nreport: %s", r.Correct, r.Attempted, r.Failed, lines[0])
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				var names []string
				for _, m := range want {
					names = append(names, m.Name)
					got, ok := r.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, declared %q", m.Name, got.Unit, m.Unit)
					}
				}
				sort.Strings(names)
				if got := sortedKeys(r.Metrics); len(got) != len(names) {
					t.Errorf("printed metrics %v, declared %v", got, names)
				}
			})
		}
	}
}
