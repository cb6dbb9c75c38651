package main

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"
)

// TestSmoke runs one untraced pass and two traced passes of every workload:
// every op must verify, the traced twin of every op must produce the
// reference fingerprint (op checks it), the exact counts must repeat from
// pass to pass, and every layer function must only set declared metrics.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		p, err := w.setup(3)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		fail := func(op, why string) {
			// A wire-cluster op may fail on ROADMAP item 1's teardown race;
			// that is a measured failure, not a broken benchmark.
			if w.name == "wire-cluster" {
				t.Logf("%s/%s: %s", w.name, op, why)
				return
			}
			t.Errorf("%s/%s: %s", w.name, op, why)
		}
		plain := runPass(p, nil, fail)
		if plain.units <= 0 || len(plain.ops) != p.ops() {
			t.Errorf("%s: untraced pass did %d units over %d ops", w.name, plain.units, len(plain.ops))
		}
		first, second := newTracer(), newTracer()
		a := runPass(p, first, fail)
		b := runPass(p, second, fail)
		if a.units != plain.units || b.units != plain.units {
			t.Errorf("%s: traced passes did %d and %d units, untraced %d", w.name, a.units, b.units, plain.units)
		}
		if first.counts != second.counts {
			t.Errorf("%s: exact counts differ between two passes:\n%+v\n%+v", w.name, first.counts, second.counts)
		}
		if len(first.open) != 0 || first.passes != 1 {
			t.Errorf("%s: tracer left %d spans open after %d passes", w.name, len(first.open), first.passes)
		}
		for i, s := range first.spans {
			if s.End < s.Start || s.Parent >= i {
				t.Fatalf("%s: malformed span %d: %+v", w.name, i, s)
			}
		}
		out := metrics{}
		switch w.name {
		case "engine-mix":
			engineLayers(out, first, clockCost{}, simModel{}, float64(a.wall))
			if first.counts.events != plain.units || first.step.calls != plain.units {
				t.Errorf("engine-mix: decorators saw %d steps, results report %d events, pass %d",
					first.step.calls, first.counts.events, plain.units)
			}
		case "live-mix":
			liveLayers(out, first, clockCost{}, simModel{}, liveModel{})
		case "wire-cluster":
			wireLayers(out, first)
			if first.joinsRun != wireJoins*p.ops() {
				t.Errorf("wire-cluster: %d joins booked, want %d", first.joinsRun, wireJoins*p.ops())
			}
		case "explore-certify":
			exploreLayers(first, clockCost{}, simModel{})
			if first.counts.engineRuns == 0 || first.step.calls == 0 {
				t.Errorf("explore-certify: tracer saw %d engine runs, %d steps", first.counts.engineRuns, first.step.calls)
			}
		}
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric and workload declarations")

// benchmarkJSON is the file the driver reads.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []endToEndJSON `json:"end_to_end"`
	PerLayer   []perLayerJSON `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type endToEndJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type perLayerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// TestBenchmarkJSONMatchesDeclarations pins BENCHMARK.json to the program's
// own tables, so the file the driver reads and the metrics the program prints
// cannot drift apart. `go test ./benchmark -run BenchmarkJSON -update`
// rewrites the file.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	want := benchmarkJSON{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, limit 200", w.name, len(w.why))
		}
		want.Workloads = append(want.Workloads, workloadJSON{w.name, w.why})
	}
	for _, d := range endToEndDefs {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		want.EndToEnd = append(want.EndToEnd, endToEndJSON{d.name, d.unit, d.better, d.bound})
	}
	seen := map[string]bool{}
	for _, d := range perLayerDefs {
		if seen[d.name] || len(d.name) > 64 || len(d.unit) > 16 || d.moves == "" {
			t.Errorf("per-layer metric %q: duplicate, too long, or without the end-to-end metric it moves", d.name)
		}
		seen[d.name] = true
		want.PerLayer = append(want.PerLayer, perLayerJSON{d.name, d.unit, d.better})
	}
	if n := len(want.PerLayer); n > 128 {
		t.Errorf("%d per-layer metrics, limit 128", n)
	}
	const path = "../BENCHMARK.json"
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the program's declarations; rerun with -update\n got %+v\nwant %+v", got, want)
	}
}

func TestAgree(t *testing.T) {
	line := func(p50 float64, failed int) resultLine {
		m := metrics{}
		for _, d := range endToEndDefs {
			m[d.name] = metric{Value: 100, Unit: d.unit}
		}
		m["pass_p50_ms"] = metric{Value: p50, Unit: "ms"}
		return resultLine{Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: m}
	}
	file := func(seed int64, l resultLine) resultFile {
		return resultFile{
			Env:       environmentInfo{Seed: seed, Seconds: 20},
			Workloads: map[string]resultLine{"engine-mix": l},
		}
	}
	var bound float64
	for _, d := range endToEndDefs {
		if d.name == "pass_p50_ms" {
			bound = 100 * d.bound
		}
	}
	for _, c := range []struct {
		name    string
		a, b    resultFile
		outside int
		refused bool
	}{
		{"same", file(1, line(100, 0)), file(1, line(100, 0)), 0, false},
		{"within the bound", file(1, line(100, 0)), file(1, line(100+bound-1, 0)), 0, false},
		{"better", file(1, line(100, 0)), file(1, line(50, 0)), 0, false},
		{"beyond the bound", file(1, line(100, 0)), file(1, line(100+bound+1, 0)), 1, false},
		{"any new failure", file(1, line(100, 0)), file(1, line(100, 1)), 1, false},
		{"other seed", file(1, line(100, 0)), file(2, line(100, 0)), 0, true},
	} {
		outside, err := agreeResults(c.a, c.b)
		if (err != nil) != c.refused || outside != c.outside {
			t.Errorf("%s: %d outside, err %v; want %d outside, refused %v", c.name, outside, err, c.outside, c.refused)
		}
	}
	if w := worsening(200, 150, "higher"); w != 0.25 {
		t.Errorf("throughput 200 → 150 worsens by %v, want 0.25", w)
	}
}
