package lp

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// scriptAttempts replaces solveAttempt for one test: the first failures
// attempts break down with a *NumericalError, the rest run the real
// attempt. It returns the log of attempts, each as "engine/warm|cold".
func scriptAttempts(t *testing.T, failures int) *[]string {
	t.Helper()
	real := solveAttempt
	t.Cleanup(func() { solveAttempt = real })
	var log []string
	solveAttempt = func(p *Problem, o *Options) (*Solution, error) {
		mode := "cold"
		if len(o.WarmBasis) > 0 {
			mode = "warm"
		}
		log = append(log, o.Engine.String()+"/"+mode)
		if len(log) <= failures {
			return nil, &NumericalError{Backend: "sparse", Reason: "scripted", Pivots: 1}
		}
		return real(p, o)
	}
	return &log
}

// TestSolveRescueOrder: Solve's rescue retries a warm breakdown cold on the
// same engine, then, under EngineAuto only, cold on the eta engine; a pinned
// engine never switches. Stats.Rescues counts the extra attempts and
// Stats.Engine names the engine that produced the answer.
func TestSolveRescueOrder(t *testing.T) {
	p := bigRandomLP(6)
	warm, err := Solve(p)
	if err != nil || warm.Status != Optimal {
		t.Fatalf("warm-up solve: %v", err)
	}
	for _, tc := range []struct {
		engine   Engine
		warm     bool
		failures int
		want     []string
		rescues  int // -1: the breakdown must surface
		answered string
	}{
		{EngineAuto, true, 0, []string{"lu/warm"}, 0, "lu"},
		{EngineAuto, true, 1, []string{"lu/warm", "lu/cold"}, 1, "lu"},
		{EngineAuto, true, 2, []string{"lu/warm", "lu/cold", "eta/cold"}, 2, "eta"},
		{EngineAuto, true, 3, []string{"lu/warm", "lu/cold", "eta/cold"}, -1, ""},
		{EngineAuto, false, 1, []string{"lu/cold", "eta/cold"}, 1, "eta"},
		{EngineLU, true, 1, []string{"lu/warm", "lu/cold"}, 1, "lu"},
		{EngineLU, true, 2, []string{"lu/warm", "lu/cold"}, -1, ""},
		{EngineLU, false, 1, []string{"lu/cold"}, -1, ""},
		{EngineEta, true, 1, []string{"eta/warm", "eta/cold"}, 1, "eta"},
		{EngineEta, false, 1, []string{"eta/cold"}, -1, ""},
	} {
		engine := map[Engine]string{EngineAuto: "auto", EngineLU: "lu", EngineEta: "eta"}[tc.engine]
		name := fmt.Sprintf("%s/warm=%v/fail=%d", engine, tc.warm, tc.failures)
		t.Run(name, func(t *testing.T) {
			log := scriptAttempts(t, tc.failures)
			opts := []Option{WithEngine(tc.engine)}
			if tc.warm {
				opts = append(opts, WithWarmBasis(warm.Basis))
			}
			sol, err := Solve(p, opts...)
			if !reflect.DeepEqual(*log, tc.want) {
				t.Fatalf("attempts %v, want %v", *log, tc.want)
			}
			if tc.rescues < 0 {
				var ne *NumericalError
				if !errors.As(err, &ne) {
					t.Fatalf("error %v, want the *NumericalError to surface", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status != Optimal || !approxEq(sol.Objective, warm.Objective, 1e-9*(1+math.Abs(warm.Objective))) {
				t.Fatalf("status %v objective %v, want optimal %v", sol.Status, sol.Objective, warm.Objective)
			}
			if sol.Stats.Rescues != tc.rescues || sol.Stats.Engine != tc.answered {
				t.Fatalf("Stats.Rescues=%d Engine=%q, want %d %q",
					sol.Stats.Rescues, sol.Stats.Engine, tc.rescues, tc.answered)
			}
		})
	}
}

// TestSolveNoRescueForOtherErrors: only a *NumericalError earns a retry.
func TestSolveNoRescueForOtherErrors(t *testing.T) {
	real := solveAttempt
	defer func() { solveAttempt = real }()
	calls := 0
	boom := errors.New("boom")
	solveAttempt = func(*Problem, *Options) (*Solution, error) {
		calls++
		return nil, boom
	}
	if _, err := Solve(bigRandomLP(6)); !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("err %v after %d attempts, want boom after 1", err, calls)
	}
}
