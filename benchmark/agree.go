package main

import (
	"fmt"
	"math"
)

// agreeFiles compares two result files of the same seed and run length,
// workload by workload and end-to-end metric by metric: b may be worse than
// a by at most the metric's bound. It is how two runs of one commit are shown
// to repeat, and how a later change reports parent (a) against change (b).
func agreeFiles(pathA, pathB string) error {
	a, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	outside, err := agreeResults(a, b)
	if err != nil {
		return err
	}
	if outside > 0 {
		return fmt.Errorf("%d metrics outside their bounds", outside)
	}
	return nil
}

// worsening is how much worse b is than a as a share of a, negative when b
// is better, given the metric's good direction.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		if b == a {
			return 0
		}
		return math.Inf(1)
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		d = -d
	}
	return d
}

// agreeResults prints the comparison table and returns how many pairings
// fell outside their bound. Files that were not measured the same way are
// refused rather than compared.
func agreeResults(a, b resultFile) (int, error) {
	if a.Env.Seed != b.Env.Seed || a.Env.Seconds != b.Env.Seconds || a.Env.Traced != b.Env.Traced {
		return 0, fmt.Errorf("results are not comparable: seed %d, %gs, traced %v against seed %d, %gs, traced %v",
			a.Env.Seed, a.Env.Seconds, a.Env.Traced, b.Env.Seed, b.Env.Seconds, b.Env.Traced)
	}
	if a.Env.Traced {
		return 0, fmt.Errorf("results are traced runs: per-layer metrics have no bounds to agree within")
	}
	outside := 0
	row := func(w, name string, va, vb, bound float64, better string) {
		d := worsening(va, vb, better)
		verdict := "ok"
		if d > bound {
			verdict = "outside"
			outside++
		}
		change := "      n/a"
		if va != 0 {
			change = fmt.Sprintf("%+8.1f%%", 100*(vb-va)/math.Abs(va))
		}
		fmt.Printf("%-16s %-18s %14.4f %14.4f %s %6.0f%%  %s\n", w, name, va, vb, change, 100*bound, verdict)
	}
	fmt.Printf("%-16s %-18s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "b vs a", "bound")
	for _, w := range workloads {
		la, okA := a.Workloads[w.name]
		lb, okB := b.Workloads[w.name]
		if !okA || !okB {
			if okA != okB {
				return 0, fmt.Errorf("results are not comparable: %s is in only one of them", w.name)
			}
			continue
		}
		for _, d := range endToEndDefs {
			row(w.name, d.name, la.Metrics[d.name].Value, lb.Metrics[d.name].Value, d.bound, d.better)
		}
		row(w.name, "failed_share", ratio(float64(la.Failed), float64(la.Attempted)),
			ratio(float64(lb.Failed), float64(lb.Attempted)), failedShareBound, "lower")
	}
	return outside, nil
}
