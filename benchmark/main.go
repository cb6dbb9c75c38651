// Command benchmark is the repository's benchmark: four closed-loop
// workloads, one per execution path (engine, live plane, wire cluster,
// exhaustive certifier), each reporting the same end-to-end metrics, and a
// traced mode that attributes a run's wall clock to the layers from outside
// them. See README.md in this directory.
//
//	go run ./benchmark                      every workload, each in a fresh child process
//	go run ./benchmark -workload live-mix   one workload, in this process
//	go run ./benchmark -trace 1             the per-layer metrics instead
//	go run ./benchmark -out a.json          also save the results
//	go run ./benchmark -agree a.json b.json compare two saved results
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

var processStart = time.Now()

// defaultSeconds is BENCHMARK.json's run_seconds: long enough that every
// workload gets well over the 110 passes pass_p90_ms needs.
const defaultSeconds = 20

// resultLine is the last line a single-workload run prints.
type resultLine struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: engine-mix, live-mix, wire-cluster or explore-certify (default: all, each in a child process)")
		seed    = flag.Int64("seed", 1, "seed of every adversary and every sampled schedule")
		seconds = flag.Float64("seconds", defaultSeconds, "how long the timed part of a run measures")
		trace   = flag.Int("trace", 0, "1: report the per-layer metrics from a traced run instead of the end-to-end ones")
		outPath = flag.String("out", "", "also write the results, with their environment, to this file")
		agree   = flag.Bool("agree", false, "compare the two result files given as arguments; exit 1 if any metric is outside its bound")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *outPath, *agree, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace bool, outPath string, agree bool, args []string) error {
	if agree {
		if len(args) != 2 {
			return fmt.Errorf("-agree needs two result files")
		}
		return agreeFiles(args[0], args[1])
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %v", args)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	lines := map[string]resultLine{}
	save := func() error {
		if outPath == "" {
			return nil
		}
		return resultFile{Env: environment(seed, seconds, trace), Workloads: lines}.write(outPath)
	}
	if name == "" {
		for _, w := range workloads {
			line, err := runChild(w.name, seed, seconds, trace)
			if err != nil {
				return err
			}
			lines[w.name] = line
		}
		return save()
	}
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	line, err := runWorkload(w, seed, seconds, trace)
	if err != nil {
		return err
	}
	lines[w.name] = line
	if err := save(); err != nil {
		return err
	}
	return printLine(line) // the result line is the last line of standard output
}

func printLine(line resultLine) error {
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// runWorkload runs one workload in this process and prints its report.
func runWorkload(w workload, seed int64, seconds float64, trace bool) (resultLine, error) {
	if trace {
		r, err := traced(w, seed, seconds)
		if err != nil {
			return resultLine{}, err
		}
		fmt.Printf("%s (traced, seed %d): per-layer metrics\n", w.name, seed)
		r.metrics.print(perLayerDefs)
		fmt.Printf("  spans written to %s\n", r.traceFile)
		reportFailures(r.failed, r.attempted, r.firstFailure)
		for _, w := range r.warnings {
			fmt.Fprintln(os.Stderr, "warning:", w)
		}
		return resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}, nil
	}
	e, err := measure(w, seed, seconds, processStart)
	if err != nil {
		return resultLine{}, err
	}
	m := e.metrics()
	fmt.Printf("%s (seed %d, %d passes of %d ops, throughput in %s/s): end-to-end metrics\n",
		w.name, seed, e.passes, e.attempted/max(e.passes, 1), w.unit)
	m.print(endToEndDefs)
	fmt.Printf("  %-44s %14.4f share (%d of %d ops)\n", "failed_share", e.failedShare(), e.failed, e.attempted)
	if w.name == "wire-cluster" {
		fmt.Printf("  %-44s %14d of %d joins exited with an error (not failed ops)\n", "join_errors", e.joinErrs, wireJoins*e.attempted)
	}
	fmt.Printf("  %-44s %14.1f %s (exact for a seed)\n", "units_per_pass", e.unitsPerPass, w.unit)
	fmt.Printf("  %-44s %14d samples beyond pass_p90_ms\n", "p90_samples_beyond", e.p90Beyond)
	fmt.Printf("  %-44s %14.4f ms (information only)\n", "pass_p99_ms", e.passP99Ms)
	fmt.Printf("  %-44s %14.4f MiB (VmHWM, information only)\n", "rss_high_water_mb", e.hwmRSSMB)
	for i, name := range e.opNames {
		fmt.Printf("  %-44s %14.4f ms (information only)\n", "op_p50_ms."+name, e.opP50Ms[i])
	}
	reportFailures(e.failed, e.attempted, e.firstFailure)
	if e.p90Beyond < 10 {
		fmt.Fprintf(os.Stderr, "warning: %s: only %d passes beyond pass_p90_ms; run longer for a trustworthy p90\n", w.name, e.p90Beyond)
	}
	return resultLine{Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed, Metrics: m}, nil
}

func reportFailures(failed, attempted int, first string) {
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "warning: %d of %d ops failed; first: %s\n", failed, attempted, first)
	}
}

// runChild runs one workload in a fresh process of this program, so that
// pools, GC state and resident memory do not leak from one workload into the
// next, relays its report and returns its result line.
func runChild(name string, seed int64, seconds float64, trace bool) (resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return resultLine{}, err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", traceArg)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		os.Stdout.Write(stdout.Bytes())
		return resultLine{}, fmt.Errorf("%s: %w", name, err)
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	var line resultLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return line, fmt.Errorf("%s: result line: %w", name, err)
	}
	fmt.Println()
	return line, nil
}

// environmentInfo is what a result file records about where it was measured.
type environmentInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
}

func environment(seed int64, seconds float64, traced bool) environmentInfo {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environmentInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: commit, Seed: seed, Seconds: seconds, Traced: traced,
	}
}

// resultFile is what -out writes and -agree reads.
type resultFile struct {
	Env       environmentInfo       `json:"env"`
	Workloads map[string]resultLine `json:"workloads"`
}

func (f resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}
