package main

import (
	"strings"
	"testing"

	"repro/internal/adversary"
)

func mustCrash(t *testing.T, specs ...string) crashFlags {
	t.Helper()
	var c crashFlags
	for _, s := range specs {
		if err := c.Set(s); err != nil {
			t.Fatalf("crash flag %q: %v", s, err)
		}
	}
	return c
}

func TestBuildSchedule(t *testing.T) {
	t.Parallel()
	vec, err := buildSchedule("0@a7:keep:p0,1@r4", mustCrash(t, "2@6", "3@9"), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != 4 {
		t.Fatalf("merged vector has %d choices, want 4: %v", len(vec), vec)
	}
	want := adversary.Choice{Victim: 2, Round: 6}
	if vec[2] != want {
		t.Errorf("crash flag merged as %+v, want %+v", vec[2], want)
	}
	if vec2, err := buildSchedule("", nil, 4); err != nil || vec2 != nil {
		t.Errorf("empty schedule: got (%v, %v), want (nil, nil)", vec2, err)
	}
}

func TestBuildScheduleRejects(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name     string
		schedule string
		crashes  crashFlags
		workers  int
		wantErr  string
	}{
		{"malformed schedule", "0@", nil, 8, "-schedule"},
		{"schedule victim out of range", "7@r4", nil, 4, "out of range"},
		{"crash victim out of range", "", mustCrash(t, "7@4"), 4, "out of range"},
		{"negative crash victim", "", mustCrash(t, "-1@4"), 4, "out of range"},
		{"negative crash round", "", mustCrash(t, "1@-4"), 8, "negative round"},
		{"schedule+crash contradiction", "1@r4", mustCrash(t, "1@6"), 8, "already has a fault from -schedule;"},
		{"duplicate crash flags", "", mustCrash(t, "1@4", "1@6"), 8, "already has a fault from -crash 1@4;"},
		{"restart before crash", "1@r6:restart@r3", nil, 8, "bad choice"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			_, err := buildSchedule(tc.schedule, tc.crashes, tc.workers)
			if err == nil {
				t.Fatalf("accepted bad input (schedule=%q crashes=%v workers=%d)", tc.schedule, tc.crashes, tc.workers)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Errorf("error is not one line: %q", err)
			}
		})
	}
}

// TestCheckRunCrashes pins run's -crash handling: refused under any pattern
// but schedule, and under schedule checked like live's, with errors that
// name only flags run has.
func TestCheckRunCrashes(t *testing.T) {
	t.Parallel()
	if err := checkRunCrashes("schedule", mustCrash(t, "1@10", "2@20"), 16); err != nil {
		t.Fatalf("valid schedule refused: %v", err)
	}
	err := checkRunCrashes("schedule", mustCrash(t, "3@5", "3@7"), 8)
	const want = "-crash 3@7: process 3 already has a fault from -crash 3@5; each victim may fault once"
	if err == nil || err.Error() != want {
		t.Errorf("duplicate victim: error %v, want %q", err, want)
	}
	for failures, crash := range map[string]string{"none": "3@5", "schedule": "99@5"} {
		err := checkRunCrashes(failures, mustCrash(t, crash), 8)
		if err == nil || strings.Contains(err.Error(), "\n") {
			t.Errorf("-failures %s -crash %s: error %v, want one line", failures, crash, err)
		}
	}
}
