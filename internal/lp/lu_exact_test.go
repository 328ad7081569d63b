package lp

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// factorizeBasisDense is the plain dense factorization that factorizeBasis
// must reproduce bit for bit: every column is loaded densely, eliminated
// against every L eta (empty ones included) and scanned over all m rows,
// with the columns installed in stable order of nonzero count.
func (s *Solver) factorizeBasisDense(f *luFactor) bool {
	m := s.m
	f.init(m)
	rc := f.keys
	for i := range rc {
		rc[i] = 0
	}
	for slot := 0; slot < m; slot++ {
		j := s.basis[slot]
		switch {
		case j < s.nStructBase:
			for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
				rc[s.colRow[k]]++
			}
			if s.extCols != nil {
				for _, e := range s.extCols[j] {
					rc[e.i]++
				}
			}
		case j < s.nStruct:
			for _, e := range s.newCols[j-s.nStructBase] {
				rc[e.i]++
			}
			if s.extCols != nil {
				for _, e := range s.extCols[j] {
					rc[e.i]++
				}
			}
		case j < s.nStruct+s.m:
			rc[j-s.nStruct]++
		default:
			rc[j-s.nStruct-s.m]++
		}
	}
	ord := f.order
	for i := range ord {
		ord[i] = int32(i)
	}
	sort.SliceStable(ord, func(a, b int) bool {
		return s.colNNZ(s.basis[ord[a]]) < s.colNNZ(s.basis[ord[b]])
	})
	assigned := f.assigned
	for i := range assigned {
		assigned[i] = false
	}
	x := make([]float64, m)
	for k := 0; k < m; k++ {
		slot := int(ord[k])
		s.loadCol(s.basis[slot], x)
		for e := range f.lR {
			t := x[f.lR[e]]
			if t == 0 {
				continue
			}
			for q := f.lPtr[e]; q < f.lPtr[e+1]; q++ {
				x[f.lIdx[q]] -= f.lVal[q] * t
			}
		}
		maxAbs := 0.0
		for i := 0; i < m; i++ {
			if !assigned[i] {
				if a := math.Abs(x[i]); a > maxAbs {
					maxAbs = a
				}
			}
		}
		if maxAbs <= pivotEps {
			return false
		}
		thresh := luPivotThreshold * maxAbs
		best, bestCount, bestAbs := -1, int32(math.MaxInt32), 0.0
		for i := 0; i < m; i++ {
			if assigned[i] {
				continue
			}
			a := math.Abs(x[i])
			if a < thresh || a <= pivotEps {
				continue
			}
			if rc[i] < bestCount || (rc[i] == bestCount && a > bestAbs) {
				best, bestCount, bestAbs = i, rc[i], a
			}
		}
		piv := x[best]
		f.upiv[slot] = piv
		f.prow[slot] = int32(best)
		f.rowSlot[best] = int32(slot)
		f.pos[slot] = int32(k)
		f.order[k] = int32(slot)
		assigned[best] = true
		for i := 0; i < m; i++ {
			v := x[i]
			if i == best || (v < luDropTol && v > -luDropTol) {
				continue
			}
			if assigned[i] {
				t := f.rowSlot[i]
				f.urows[t] = append(f.urows[t], uent{slot: int32(slot), val: v})
				f.ucols[slot] = append(f.ucols[slot], uent{slot: t, val: v})
				f.unnz++
				continue
			}
			f.lIdx = append(f.lIdx, int32(i))
			f.lVal = append(f.lVal, v/piv)
		}
		f.lR = append(f.lR, int32(best))
		f.lPtr = append(f.lPtr, int32(len(f.lIdx)))
	}
	f.baseNNZ = m + f.unnz + len(f.lVal)
	f.buildLTranspose()
	return true
}

func sameInt32s(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameUEnts(a, b []uent) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].slot != b[i].slot || math.Float64bits(a[i].val) != math.Float64bits(b[i].val) {
			return false
		}
	}
	return true
}

// checkSameFactor fails unless got and want hold the same factor bit for
// bit: pivot maps, elimination order, diagonal, L etas, U by row and by
// column (entry order included), and the transposed L views. It also
// checks got's non-empty-eta list against its L etas.
func checkSameFactor(t *testing.T, got, want *luFactor) {
	t.Helper()
	for _, c := range []struct {
		name string
		ok   bool
	}{
		{"prow", sameInt32s(got.prow, want.prow)},
		{"rowSlot", sameInt32s(got.rowSlot, want.rowSlot)},
		{"pos", sameInt32s(got.pos, want.pos)},
		{"order", sameInt32s(got.order, want.order)},
		{"upiv", sameBits(got.upiv, want.upiv)},
		{"lR", sameInt32s(got.lR, want.lR)},
		{"lPtr", sameInt32s(got.lPtr, want.lPtr)},
		{"lIdx", sameInt32s(got.lIdx, want.lIdx)},
		{"lVal", sameBits(got.lVal, want.lVal)},
		{"lEta", sameInt32s(got.lEta, want.lEta)},
		{"ltPtr", sameInt32s(got.ltPtr, want.ltPtr)},
		{"ltRow", sameInt32s(got.ltRow, want.ltRow)},
		{"unnz/baseNNZ", got.unnz == want.unnz && got.baseNNZ == want.baseNNZ},
	} {
		if !c.ok {
			t.Fatalf("factor differs from the dense reference in %s", c.name)
		}
	}
	for s := 0; s < want.m; s++ {
		if !sameUEnts(got.urows[s], want.urows[s]) || !sameUEnts(got.ucols[s], want.ucols[s]) {
			t.Fatalf("U row or column of slot %d differs from the dense reference", s)
		}
	}
	var nonEmpty []int32
	for k := range got.lR {
		if got.lPtr[k] < got.lPtr[k+1] {
			nonEmpty = append(nonEmpty, int32(k))
		}
	}
	if !sameInt32s(got.lNZ, nonEmpty) {
		t.Fatalf("lNZ %v, want the non-empty etas %v", got.lNZ, nonEmpty)
	}
}

// exactTestSolver builds a solver over n random sparse structural columns
// on m rows, a fifth of them singletons, with a random artificial sign per
// row. Its basis is left for slackHeavyBasis to fill.
func exactTestSolver(t *testing.T, rng *rand.Rand, m, n int) *Solver {
	cols := randCols(rng, n, m, 0.1+0.2*rng.Float64())
	for j := range cols {
		if rng.Intn(5) == 0 {
			for i := range cols[j] {
				cols[j][i] = 0
			}
			cols[j][rng.Intn(m)] = 1 + rng.Float64()
		}
	}
	s := luTestSolver(t, cols, nil)
	for i := range s.artSign {
		s.artSign[i] = float64(1 - 2*rng.Intn(2))
	}
	return s
}

// slackHeavyBasis fills s.basis with a random basis that is about 80%
// slacks: every slot starts with its row's slack, a few swap it for the
// row's artificial, and about a fifth of the rows hand their slot to a
// structural column (singletons included) with a nonzero in that row, so
// the basis is structurally nonsingular and usually numerically so.
func slackHeavyBasis(rng *rand.Rand, s *Solver) {
	for i := 0; i < s.m; i++ {
		s.basis[i] = s.nStruct + i
		if rng.Intn(20) == 0 {
			s.basis[i] = s.nStruct + s.m + i
		}
	}
	x := make([]float64, s.m)
	var rows []int
	for _, j := range rng.Perm(s.nStruct)[:min(s.nStruct, s.m/5)] {
		s.loadCol(j, x)
		rows = rows[:0]
		for i, v := range x {
			if v != 0 && s.basis[i] >= s.nStruct {
				rows = append(rows, i)
			}
		}
		if len(rows) > 0 {
			s.basis[rows[rng.Intn(len(rows))]] = j
		}
	}
}

// factorizeBoth factorizes s's basis with factorizeBasis into f and with
// the dense reference into a fresh factor, and fails unless both agree on
// singularity and, when nonsingular, on every bit of the factor.
func factorizeBoth(t *testing.T, s *Solver, f *luFactor) bool {
	t.Helper()
	ref := &luFactor{}
	want := s.factorizeBasisDense(ref)
	if got := s.factorizeBasis(f); got != want {
		t.Fatalf("factorizeBasis nonsingular=%v, dense reference %v", got, want)
	}
	if want {
		checkSameFactor(t, f, ref)
	}
	return want
}

// TestFactorizeMatchesDenseReference pins the reinversion fast paths
// (counting-sort column order, O(1) singleton pivots, elimination over the
// non-empty etas only) to the plain dense factorization, bit for bit, on
// slack-heavy bases with artificials and singleton structurals, into a
// reused factor, and again after AddRows and AddCols extend the system.
func TestFactorizeMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	nonsingular := 0
	for trial := 0; trial < 120; trial++ {
		m := 8 + rng.Intn(40)
		s := exactTestSolver(t, rng, m, m+rng.Intn(m))
		f := &luFactor{}
		for rep := 0; rep < 3; rep++ { // the same factor reused across bases
			slackHeavyBasis(rng, s)
			if factorizeBoth(t, s, f) {
				nonsingular++
			}
		}
		cuts := make([]CutRow, 1+rng.Intn(5))
		for c := range cuts {
			for k := 0; k < 1+rng.Intn(4); k++ {
				cuts[c].Cols = append(cuts[c].Cols, rng.Intn(s.nStruct))
				cuts[c].Vals = append(cuts[c].Vals, math.Round(rng.NormFloat64()*8)/4)
			}
			cuts[c].Kind, cuts[c].RHS = LE, 1
		}
		if err := s.AddRows(cuts); err != nil {
			t.Fatal(err)
		}
		r := rng.Intn(m) // AddCols takes base rows only
		if err := s.AddCols([]NewCol{{Hi: 1, Rows: []int{r}, Vals: []float64{2}}}); err != nil {
			t.Fatal(err)
		}
		for i := range s.artSign {
			s.artSign[i] = float64(1 - 2*rng.Intn(2))
		}
		slackHeavyBasis(rng, s)
		s.basis[r] = s.nStruct - 1 // the appended singleton
		if factorizeBoth(t, s, f) {
			nonsingular++
		}
	}
	if nonsingular < 400 {
		t.Fatalf("only %d of 480 bases were nonsingular; the comparison is too thin", nonsingular)
	}
}

// TestFactorizeSingularFastPath: the O(1) singleton pivot must still
// reject what the dense scan rejects — two unit columns on one row (a
// slack beside a singleton structural, a slack beside its own row's
// artificial) and an empty column.
func TestFactorizeSingularFastPath(t *testing.T) {
	const m = 10
	cols := make([][]float64, 3)
	for j := range cols {
		cols[j] = make([]float64, m)
	}
	cols[0][4] = 3 // singleton on row 4
	cols[1][2], cols[1][7] = 1, 2
	// cols[2] stays empty.
	s := luTestSolver(t, cols, nil)
	for i := range s.artSign {
		s.artSign[i] = 1
	}
	slacks := func() {
		for i := 0; i < m; i++ {
			s.basis[i] = s.nStruct + i
		}
	}
	for name, set := range map[string]func(){
		"singleton beside slack":  func() { s.basis[0] = 0 },
		"artificial beside slack": func() { s.basis[0] = s.nStruct + s.m + 3 },
		"empty column":            func() { s.basis[0] = 2 },
	} {
		slacks()
		set()
		if s.factorizeBasisDense(&luFactor{}) {
			t.Fatalf("%s: dense reference factorized a singular basis", name)
		}
		if s.factorizeBasis(&luFactor{}) {
			t.Fatalf("%s: factorized a singular basis", name)
		}
	}
	slacks()
	s.basis[4] = 0 // the singleton in its own row's slot: nonsingular
	if !factorizeBoth(t, s, &luFactor{}) {
		t.Fatal("rejected a nonsingular slack-plus-singleton basis")
	}
}

// sameValues reports whether a and b hold the same values, bit for bit
// except that +0 and -0 count as equal.
func sameValues(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSolvePathsBitExact pins the path-exactness contract on factors that
// carry Forrest–Tomlin updates: the gather-form stages give the same
// values (up to the sign of zero) dense or sparse — BTRAN sparse vs dense,
// and FTRAN's U stage dense vs sparse from the same stashed spike.
func TestSolvePathsBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var sparse, dense int
	for trial := 0; trial < 40; trial++ {
		m := 10 + rng.Intn(40)
		s := exactTestSolver(t, rng, m, 2*m)
		slackHeavyBasis(rng, s)
		if !s.factorizeBasis(s.lu) {
			continue
		}
		for _, j := range s.basis {
			s.status[j] = basic
		}
		for step := 0; step < 15; step++ {
			r := rng.Intn(m)
			enter := -1
			for probe := 0; probe < 20; probe++ {
				j := rng.Intn(s.nStruct)
				if s.status[j] == basic {
					continue
				}
				if col, _ := s.ftranCol(j); math.Abs(col[r]) > 1e-3 {
					enter = j
					break
				}
			}
			if enter < 0 {
				break
			}
			if _, ok := s.lu.ftUpdate(r); !ok {
				break
			}
			s.status[s.basis[r]] = atLower
			s.basis[r] = enter
			s.status[enter] = basic
			f := s.lu
			for _, nnz := range []int{1, 2, 1 + m/6} {
				v, idx := sparseRHS(rng, m, nnz)
				// FTRAN: U stage dense from the stashed spike vs the solve.
				got := append([]float64(nil), v...)
				_, ok := f.ftranSparse(got, idx)
				spike := append([]float64(nil), f.spike...)
				f.uSolve(spike)
				if !sameValues(got, f.z) {
					t.Fatalf("trial %d: FTRAN result differs from its U stage run dense", trial)
				}
				checkScratchClean(t, f)
				if ok {
					sparse++
				} else {
					dense++
				}
				// BTRAN: sparse vs dense.
				v, idx = sparseRHS(rng, m, nnz)
				want := append([]float64(nil), v...)
				f.btran(want)
				got = append([]float64(nil), v...)
				_, ok = f.btranSparse(got, idx)
				if !sameValues(got, want) {
					t.Fatalf("trial %d: sparse BTRAN (ok=%v) differs from dense", trial, ok)
				}
				checkScratchClean(t, f)
			}
		}
	}
	if sparse == 0 || dense == 0 {
		t.Fatalf("FTRANs stayed sparse %d times and went dense %d times; both paths must be covered", sparse, dense)
	}
}
