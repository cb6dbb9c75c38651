package main

// Shared flag validation for the subcommands that take fault schedules and
// run grids. One path for -schedule/-crash merging means run, live and serve
// reject the same bad input with the same one-line message, instead of one
// of them silently accepting a schedule that can never fire.

import (
	"fmt"

	"repro/internal/adversary"
)

// validateGrid rejects impossible (n, t) instances before any machinery
// spins up.
func validateGrid(units, workers int) error {
	if units < 1 {
		return fmt.Errorf("-units must be at least 1 (got %d)", units)
	}
	if workers < 1 {
		return fmt.Errorf("-workers must be at least 1 (got %d)", workers)
	}
	return nil
}

// buildSchedule merges the -schedule grammar string and the repeatable
// -crash flags into one validated fault vector for a workers-process run.
// Contradictions — two faults for one victim, whichever flags they came
// from — and victims outside [0, workers) are errors, not silent no-ops.
func buildSchedule(schedule string, crashes crashFlags, workers int) (adversary.Vector, error) {
	vec, err := adversary.ParseVector(schedule)
	if err != nil {
		return nil, fmt.Errorf("-schedule: %w", err)
	}
	// victims names the flag each victim's fault came from, so a duplicate
	// names only flags the subcommand has and was given.
	victims := make(map[int]string, len(vec)+len(crashes))
	for _, c := range vec {
		victims[c.Victim] = "-schedule"
	}
	for _, c := range crashes {
		flag := fmt.Sprintf("-crash %d@%d", c.Process, c.Round)
		if c.Round < 0 {
			return nil, fmt.Errorf("%s: negative round", flag)
		}
		if from, dup := victims[c.Process]; dup {
			return nil, fmt.Errorf("%s: process %d already has a fault from %s; each victim may fault once",
				flag, c.Process, from)
		}
		victims[c.Process] = flag
		vec = append(vec, adversary.Choice{Victim: c.Process, Round: c.Round})
	}
	for _, c := range vec {
		if c.Victim < 0 || c.Victim >= workers {
			return nil, fmt.Errorf("fault victim %d out of range: %d workers means PIDs 0..%d", c.Victim, workers, workers-1)
		}
	}
	if err := vec.Validate(); err != nil {
		return nil, err
	}
	return vec, nil
}

// checkRunCrashes validates run's -crash list. run reads it only under
// -failures schedule, so any other pattern with -crash is an error, and the
// list gets the same checks as live's and serve's.
func checkRunCrashes(failures string, crashes crashFlags, workers int) error {
	if len(crashes) > 0 && failures != "schedule" {
		return fmt.Errorf("-crash needs -failures schedule (got -failures %s)", failures)
	}
	_, err := buildSchedule("", crashes, workers)
	return err
}
