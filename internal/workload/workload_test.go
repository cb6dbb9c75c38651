package workload

import (
	"testing"
	"testing/quick"
)

func TestValvesIdempotent(t *testing.T) {
	v := NewValves(4)
	v.Do(2)
	v.Do(2)
	v.Do(2)
	if !v.Done(2) || v.Done(1) {
		t.Fatal("done state wrong")
	}
	if v.Checks(2) != 3 {
		t.Fatalf("checks = %d, want 3", v.Checks(2))
	}
	if v.AllClosed() {
		t.Fatal("not all closed")
	}
	for u := 1; u <= 4; u++ {
		v.Do(u)
	}
	if !v.AllClosed() {
		t.Fatal("all closed expected")
	}
	// Out-of-range units are ignored.
	v.Do(0)
	v.Do(99)
}

func TestFormulaEvaluation(t *testing.T) {
	// (x1 ∨ x2 ∨ x3) ∧ (¬x1 ∨ ¬x2 ∨ ¬x3): satisfiable (e.g. x1 only).
	f, err := NewFormula(3, [][3]int{{1, 2, 3}, {-1, -2, -3}})
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 8 {
		t.Fatalf("size = %d", f.Size())
	}
	for u := 1; u <= f.Size(); u++ {
		f.Do(u)
	}
	sat, complete := f.Satisfiable()
	if !sat || !complete {
		t.Fatalf("sat=%v complete=%v, want true/true", sat, complete)
	}
}

func TestFormulaUnsatisfiable(t *testing.T) {
	// x1 ∧ ¬x1 via padded clauses.
	f, err := NewFormula(1, [][3]int{{1, 1, 1}, {-1, -1, -1}})
	if err != nil {
		t.Fatal(err)
	}
	for u := 1; u <= f.Size(); u++ {
		f.Do(u)
	}
	if sat, _ := f.Satisfiable(); sat {
		t.Fatal("unsatisfiable formula reported sat")
	}
}

func TestFormulaValidation(t *testing.T) {
	if _, err := NewFormula(0, nil); err == nil {
		t.Fatal("want error for 0 vars")
	}
	if _, err := NewFormula(25, nil); err == nil {
		t.Fatal("want error for too many vars")
	}
	if _, err := NewFormula(2, [][3]int{{1, 3, 2}}); err == nil {
		t.Fatal("want error for out-of-range literal")
	}
	if _, err := NewFormula(2, [][3]int{{0, 1, 2}}); err == nil {
		t.Fatal("want error for zero literal")
	}
}

func TestFormulaMatchesDirectEvaluation(t *testing.T) {
	// Property: the workload's verdict equals direct evaluation.
	f, err := NewFormula(4, [][3]int{{1, -2, 3}, {-1, 2, 4}, {2, -3, -4}})
	if err != nil {
		t.Fatal(err)
	}
	check := func(raw uint8) bool {
		u := int(raw%16) + 1
		f.Do(u)
		assign := u - 1
		want := evalDirect(assign)
		f.mu.Lock()
		got := f.results[u]
		f.mu.Unlock()
		return got == want
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func evalDirect(a int) bool {
	x := func(v int) bool { return a>>(v-1)&1 == 1 }
	c1 := x(1) || !x(2) || x(3)
	c2 := !x(1) || x(2) || x(4)
	c3 := x(2) || !x(3) || !x(4)
	return c1 && c2 && c3
}
