package presolve

import (
	"math"
	"slices"
	"testing"
)

// Ingest semantics: Run's reduced rows are the stated rows with duplicate
// terms summed in term order, exactly-zero sums dropped and columns
// ascending — the same rows the simplex's own ingest would build.

func TestRunIngestsRows(t *testing.T) {
	negZero := math.Copysign(0, -1)
	// Summed in term order 0.1+0.2+0.3 is 0.6000000000000001; summed the
	// other way round it is 0.6. (Variables, so the sums round in float64
	// instead of folding as exact constants.)
	a, b, c := 0.1, 0.2, 0.3
	termOrder := (a + b) + c
	if termOrder == (c+b)+a {
		t.Fatal("the term-order case no longer distinguishes summation orders")
	}
	for _, tc := range []struct {
		name     string
		cols     []int
		vals     []float64
		wantCols []int
		wantVals []float64
	}{
		{"sorted row passes through", []int{0, 2, 3}, []float64{1, -2, 4}, []int{0, 2, 3}, []float64{1, -2, 4}},
		{"unsorted row comes out sorted", []int{3, 1, 2}, []float64{3, 1, 2}, []int{1, 2, 3}, []float64{1, 2, 3}},
		{"duplicates summed in term order", []int{2, 0, 2, 2}, []float64{0.1, 1, 0.2, 0.3}, []int{0, 2}, []float64{1, termOrder}},
		{"exact zero sum dropped", []int{1, 0, 1}, []float64{0.5, 7, -0.5}, []int{0}, []float64{7}},
		{"negative zero term dropped", []int{2, 1}, []float64{negZero, 5}, []int{1}, []float64{5}},
		{"negative zero then a value", []int{1, 1}, []float64{negZero, -3}, []int{1}, []float64{-3}},
		{"cancellation then a value", []int{0, 0, 0}, []float64{2, -2, 9}, []int{0}, []float64{9}},
		{"all terms cancel", []int{3, 3}, []float64{1, -1}, nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A second, untouched row after the one under test catches a
			// row spilling into its neighbour's slab.
			p := &Problem{
				NumVars: 4,
				Cost:    []float64{1, 1, 1, 1},
				Rows: []Row{
					{Cols: slices.Clone(tc.cols), Vals: slices.Clone(tc.vals), Rel: LE, RHS: 1},
					{Cols: []int{3, 0}, Vals: []float64{8, 9}, Rel: GE, RHS: 2},
				},
			}
			red := Run(p, ScaleOnly)
			if red.Outcome != OutcomeReduced || len(red.P.Rows) != 2 {
				t.Fatalf("outcome %v with %d rows", red.Outcome, len(red.P.Rows))
			}
			got := red.P.Rows[0]
			if !slices.Equal(got.Cols, tc.wantCols) {
				t.Fatalf("cols %v, want %v", got.Cols, tc.wantCols)
			}
			for k := range tc.wantVals {
				if math.Float64bits(got.Vals[k]) != math.Float64bits(tc.wantVals[k]) {
					t.Errorf("val[%d] = %v (%#x), want %v (%#x)", k, got.Vals[k],
						math.Float64bits(got.Vals[k]), tc.wantVals[k], math.Float64bits(tc.wantVals[k]))
				}
			}
			if next := red.P.Rows[1]; !slices.Equal(next.Cols, []int{0, 3}) || !slices.Equal(next.Vals, []float64{9, 8}) {
				t.Errorf("neighbour row %v %v, want [0 3] [9 8]", next.Cols, next.Vals)
			}
			// The input is never mutated.
			if !slices.Equal(p.Rows[0].Cols, tc.cols) || !slices.Equal(p.Rows[0].Vals, tc.vals) {
				t.Errorf("input row rewritten to %v %v", p.Rows[0].Cols, p.Rows[0].Vals)
			}
		})
	}
}

// reducible is a problem Full mode shrinks: row 0 is a singleton equality
// fixing x0, row 2 is empty, and x0 also appears in rows 1 and 3, which the
// substitution must rewrite.
func reducible() *Problem {
	return &Problem{
		NumVars: 3,
		Cost:    []float64{1, 2, 3},
		Rows: []Row{
			{Cols: []int{0}, Vals: []float64{2}, Rel: EQ, RHS: 4},
			{Cols: []int{0, 1, 2}, Vals: []float64{1, 1, 1}, Rel: LE, RHS: 10},
			{Rel: LE, RHS: 1},
			{Cols: []int{2, 0}, Vals: []float64{1, 3}, Rel: GE, RHS: 7},
		},
	}
}

func TestScaleOnlyKeepsIndexSpaces(t *testing.T) {
	p := reducible()
	red := Run(p, ScaleOnly)
	if red.RowsRemoved != 0 || red.ColsRemoved != 0 {
		t.Fatalf("ScaleOnly eliminated %d rows, %d cols", red.RowsRemoved, red.ColsRemoved)
	}
	for i, io := range red.RowMap {
		if i != io {
			t.Fatalf("RowMap %v is not the identity", red.RowMap)
		}
	}
	for j, jo := range red.VarMap {
		if j != jo {
			t.Fatalf("VarMap %v is not the identity", red.VarMap)
		}
	}
	if len(red.RowMap) != len(p.Rows) || len(red.VarMap) != p.NumVars {
		t.Fatalf("maps cover %d rows, %d vars; want %d, %d", len(red.RowMap), len(red.VarMap), len(p.Rows), p.NumVars)
	}
}

func TestFullSubstitutesFixedColumn(t *testing.T) {
	red := Run(reducible(), Full)
	if red.Outcome != OutcomeReduced {
		t.Fatalf("outcome %v", red.Outcome)
	}
	// x0 = 4/2 = 2 leaves row 1 as x1 + x2 ≤ 8 and row 3 as x2 ≥ 1; the
	// empty row and the singleton row are gone.
	if !slices.Equal(red.RowMap, []int{1, 3}) || !slices.Equal(red.VarMap, []int{1, 2}) {
		t.Fatalf("RowMap %v VarMap %v, want [1 3] [1 2]", red.RowMap, red.VarMap)
	}
	r1, r3 := red.P.Rows[0], red.P.Rows[1]
	if !slices.Equal(r1.Cols, []int{0, 1}) || r1.RHS != 8 {
		t.Errorf("row 1 reduced to %v ≤ %v, want cols [0 1] ≤ 8", r1.Cols, r1.RHS)
	}
	if !slices.Equal(r3.Cols, []int{1}) || r3.RHS != 1 {
		t.Errorf("row 3 reduced to %v ≥ %v, want cols [1] ≥ 1", r3.Cols, r3.RHS)
	}
	if x := red.PostsolvePrimal([]float64{0, 1}); x[0] != 2 {
		t.Errorf("postsolved x0 = %v, want 2", x[0])
	}
}

func TestScaleFactorsArePowersOfTwo(t *testing.T) {
	// Coefficients spread over eight decades, so equilibration engages.
	p := &Problem{
		NumVars: 3,
		Cost:    []float64{1, 1, 1},
		Rows: []Row{
			{Cols: []int{0, 1}, Vals: []float64{1e-4, 3}, Rel: LE, RHS: 1},
			{Cols: []int{1, 2}, Vals: []float64{7e3, 0.5}, Rel: GE, RHS: 2},
			{Cols: []int{0, 2}, Vals: []float64{2e4, 1e-3}, Rel: EQ, RHS: 3},
		},
	}
	red := Run(p, ScaleOnly)
	if !red.Scaled {
		t.Fatal("equilibration did not engage on a 2e8 coefficient spread")
	}
	isPow2 := func(v float64) bool {
		frac, _ := math.Frexp(v)
		return v > 0 && frac == 0.5
	}
	for i, s := range red.RowScale {
		if !isPow2(s) {
			t.Errorf("RowScale[%d] = %v is not a power of two", i, s)
		}
		if want := p.Rows[i].RHS * s; red.P.Rows[i].RHS != want {
			t.Errorf("row %d RHS %v, want %v·%v", i, red.P.Rows[i].RHS, p.Rows[i].RHS, s)
		}
	}
	for j, s := range red.ColScale {
		if !isPow2(s) {
			t.Errorf("ColScale[%d] = %v is not a power of two", j, s)
		}
	}
}
