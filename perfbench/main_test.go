package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// runShort runs one workload in short mode and returns its stdout lines and
// decoded result.
func runShort(t *testing.T, workload, seed, trace string) ([]string, result) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", seed, "--seconds", "1", "--short",
		"--trace", trace, "--workdir", t.TempDir()}, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if code != 0 {
		t.Fatalf("%s exit %d\nstdout:\n%s\nstderr:\n%s", workload, code, out.String(), errb.String())
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v", workload, err)
	}
	return lines, res
}

func TestShortWorkloads(t *testing.T) {
	for _, w := range []string{"tune-inproc", "serve-hit-http", "serve-mixed-open"} {
		t.Run(w, func(t *testing.T) {
			_, res := runShort(t, w, "3", "1")
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("result %+v", res)
			}
			for name, unit := range perLayerUnits {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("per-layer metric %s: got %+v", name, m)
				}
			}
			if len(res.Metrics) != len(perLayerUnits) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(perLayerUnits))
			}
		})
	}
}

// TestSeedDeterminesInputsAndStats checks that the input hash and the
// statistics digest repeat for a seed and that another seed changes them.
func TestSeedDeterminesInputsAndStats(t *testing.T) {
	hashes := regexp.MustCompile(`(input hash|digest) [0-9a-f]+`)
	pick := func(lines []string) string {
		var got []string
		for _, l := range lines {
			got = append(got, hashes.FindAllString(l, -1)...)
		}
		return strings.Join(got, " ")
	}
	a, resA := runShort(t, "serve-mixed-open", "5", "0")
	b, _ := runShort(t, "serve-mixed-open", "5", "0")
	c, _ := runShort(t, "serve-mixed-open", "6", "0")
	if pick(a) == "" || pick(a) != pick(b) {
		t.Fatalf("same seed, different hashes:\n%s\n%s", pick(a), pick(b))
	}
	if pick(a) == pick(c) {
		t.Fatalf("seeds 5 and 6 gave the same hashes %s", pick(a))
	}
	for name, unit := range endToEndUnits {
		if m, ok := resA.Metrics[name]; !ok || m.Unit != unit || m.Value == 0 {
			t.Errorf("end-to-end metric %s: got %+v", name, m)
		}
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the declared metrics and the
// ones the program prints identical.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, units map[string]string) {
		if len(declared) != len(units) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program %d", kind, len(declared), len(units))
		}
		for _, d := range declared {
			if units[d.Name] != d.Unit {
				t.Errorf("%s %s: BENCHMARK.json unit %q, program %q", kind, d.Name, d.Unit, units[d.Name])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndUnits)
	check("per_layer", spec.PerLayer, perLayerUnits)
}

// TestAttribution checks the self-time split on a hand-made timeline: a
// root with two concurrent children on lane 0, idle lane 1.
func TestAttribution(t *testing.T) {
	spans := []span{
		{ID: 1, Lane: 0, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 70},
		{ID: 4, Parent: 2, Name: "leaf", Start: 20, End: 40},
	}
	a := attribute(spans, 2, 0, 100)
	ns := func(s float64) float64 { return s * 1e9 }
	// root: [0,10) and [70,100) = 40. leaf owns [20,40) while child 3 is
	// at depth 1 only, so the deepest span there is leaf alone.
	// child: [10,20) + [40,70) = 40; leaf: 20.
	want := map[string]float64{"root": 40, "child": 40, "leaf": 20}
	for name, w := range want {
		if got := ns(a.self[name]); got < w-1e-6 || got > w+1e-6 {
			t.Errorf("self %s = %v ns, want %v", name, got, w)
		}
	}
	if got := ns(a.unattributed); got < 100-1e-6 || got > 100+1e-6 {
		t.Errorf("unattributed = %v ns, want the idle lane's 100", got)
	}
}

// TestOutstandingMax checks the open loop's demand count: batches queued
// behind busy clients count from their due time until their answer.
func TestOutstandingMax(t *testing.T) {
	// Three batches due at 0, 1 and 2, answered at 3, 4 and 5: all three
	// are due and unanswered over [2, 3).
	if got := outstandingMax([]float64{0, 1, 2}, []float64{3, 4, 5}); got != 3 {
		t.Errorf("overlapping batches: %d, want 3", got)
	}
	// One batch answered exactly when the next is due never overlaps it.
	if got := outstandingMax([]float64{0, 1, 2}, []float64{1, 2, 3}); got != 1 {
		t.Errorf("back-to-back batches: %d, want 1", got)
	}
}
