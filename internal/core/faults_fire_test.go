package core_test

import (
	"strings"
	"testing"
)

// Reasons a corpus row's fault may leave its run identical to the
// failure-free run of the same shape.
const (
	budgetZero = "f=0: the layer's fault budget is 0 by design, so the adversary may touch no one"
	randomMiss = "random-1 (NewRandom(0.05, t-1, 1)) draws no crash at this shape"
	noSender   = "cascade crashes only processes that send, and Write-All never sends; the …/f5 row pins a plan that fires"
)

// vacuousRows lists the corpus rows whose fault never fires, each with its
// reason. The list may only shrink: a row that starts to fire must leave
// it, and a new row whose fault never fires needs a sibling whose fault
// does, not an entry here.
var vacuousRows = map[string]string{
	"A-fullonly/n=16,t=4/random-1":         randomMiss,
	"A/n=16,t=4/random-1":                  randomMiss,
	"B/n=16,t=4/random-1":                  randomMiss,
	"D-norevert/n=16,t=4/random-1":         randomMiss,
	"D/n=16,t=4/random-1":                  randomMiss,
	"agreement/A/n=10,f=3/random-1":        randomMiss,
	"agreement/A/n=16,f=4/random-1":        randomMiss,
	"agreement/A/n=8,f=0/cascade":          budgetZero,
	"agreement/A/n=8,f=0/loss-7":           budgetZero,
	"agreement/A/n=8,f=0/random-1":         budgetZero,
	"agreement/A/n=8,f=0/random-42":        budgetZero,
	"agreement/A/n=8,f=0/random-7":         budgetZero,
	"agreement/B/n=10,f=3/random-1":        randomMiss,
	"agreement/B/n=16,f=4/random-1":        randomMiss,
	"agreement/B/n=8,f=0/cascade":          budgetZero,
	"agreement/B/n=8,f=0/loss-7":           budgetZero,
	"agreement/B/n=8,f=0/random-1":         budgetZero,
	"agreement/B/n=8,f=0/random-42":        budgetZero,
	"agreement/B/n=8,f=0/random-7":         budgetZero,
	"agreement/C/n=8,f=0/cascade":          budgetZero,
	"agreement/C/n=8,f=0/loss-7":           budgetZero,
	"agreement/C/n=8,f=0/random-1":         budgetZero,
	"agreement/C/n=8,f=0/random-42":        budgetZero,
	"agreement/C/n=8,f=0/random-7":         budgetZero,
	"baseline/uniform-1/n=16,t=4/random-1": randomMiss,
	"baseline/uniform-1/n=24,t=8/random-1": randomMiss,
	"baseline/uniform-1/n=30,t=7/random-1": randomMiss,
	"baseline/uniform-4/n=16,t=4/random-1": randomMiss,
	"baseline/uniform-4/n=24,t=8/random-1": randomMiss,
	"baseline/uniform-t/n=16,t=4/random-1": randomMiss,
	"bootstrap/A/pool=8,t=4,f=0/cascade":   budgetZero,
	"bootstrap/A/pool=8,t=4,f=0/loss-7":    budgetZero,
	"bootstrap/A/pool=8,t=4,f=0/random-1":  budgetZero,
	"bootstrap/A/pool=8,t=4,f=0/random-42": budgetZero,
	"bootstrap/A/pool=8,t=4,f=0/random-7":  budgetZero,
	"bootstrap/B/pool=8,t=4,f=0/cascade":   budgetZero,
	"bootstrap/B/pool=8,t=4,f=0/loss-7":    budgetZero,
	"bootstrap/B/pool=8,t=4,f=0/random-1":  budgetZero,
	"bootstrap/B/pool=8,t=4,f=0/random-42": budgetZero,
	"bootstrap/B/pool=8,t=4,f=0/random-7":  budgetZero,
	"sharedmem/n=16,t=4/cascade":           noSender,
	"sharedmem/n=64,t=16/cascade":          noSender,
}

// TestCorpusFaultsFire checks that every fault the corpus names fires: a
// row whose last name segment is not "none" must record a different
// Result fingerprint from the "none" row of its shape (the name without
// that segment), unless vacuousRows lists it. A listed row whose fault now
// fires must leave the list. A fault-free run under a faulty label checks
// less than its name says, and every test that replays the corpus reads
// these labels.
//
// Not covered: the six shapes without a "none" row, deep/{A,A-fullonly,B,
// D}/n=100,t=10 and dynamic/n=64,t=8,phases=5 and n=128,t=16,phases=7.
func TestCorpusFaultsFire(t *testing.T) {
	fps := make(map[string]string)
	for name, line := range golden(t) {
		for _, field := range strings.Fields(line) {
			if fp, ok := strings.CutPrefix(field, "fp="); ok {
				fps[name] = fp
			}
		}
	}
	for name, fp := range fps {
		i := strings.LastIndexByte(name, '/')
		shape, fault := name[:i], name[i+1:]
		base, ok := fps[shape+"/none"]
		if fault == "none" || !ok {
			continue
		}
		reason, listed := vacuousRows[name]
		switch {
		case fp == base && !listed:
			t.Errorf("%s: the fault never fires; the run equals %s/none", name, shape)
		case fp != base && listed:
			t.Errorf("%s fires now; remove it from vacuousRows (%q)", name, reason)
		}
	}
	for name := range vacuousRows {
		if _, ok := fps[name]; !ok {
			t.Errorf("vacuousRows names %s, which the corpus does not hold", name)
		}
	}
}
