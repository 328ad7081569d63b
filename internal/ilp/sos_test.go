package ilp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lp"
)

// buildAssignment deterministically builds a generalized assignment
// problem from a seed: nItems items each placed in exactly one of nBins
// bins (equality rows), bin capacity rows with pseudo-random weights.
func buildAssignment(seed int64, nItems, nBins int) (*Problem, [][]int) {
	rng := rand.New(rand.NewSource(seed))
	P := &Problem{LP: lp.NewProblem(0)}
	groups := make([][]int, nItems)
	for i := 0; i < nItems; i++ {
		row := map[int]float64{}
		for b := 0; b < nBins; b++ {
			j := Binary(P)
			P.LP.SetObj(j, float64(1+((i*7+b*13)%17)))
			row[j] = 1
			groups[i] = append(groups[i], j)
		}
		P.LP.AddRow(lp.EQ, row, 1)
	}
	capacity := float64(3*nItems)/float64(nBins) + 2
	for b := 0; b < nBins; b++ {
		row := map[int]float64{}
		for i := 0; i < nItems; i++ {
			row[groups[i][b]] = float64(1 + rng.Intn(4))
		}
		P.LP.AddRow(lp.LE, row, capacity)
	}
	return P, groups
}

// assignmentProblem returns identical instances, one plain and one with
// SOS1 groups registered.
func assignmentProblem(rng *rand.Rand, nItems, nBins int) (*Problem, *Problem) {
	seed := rng.Int63()
	plain, _ := buildAssignment(seed, nItems, nBins)
	sos, groups := buildAssignment(seed, nItems, nBins)
	sos.SOS1 = groups
	return plain, sos
}

// TestSOS1MatchesPlainBranching: group branching must find the same
// optimal objective as single-variable branching.
func TestSOS1MatchesPlainBranching(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nItems := 2 + rng.Intn(5)
		nBins := 2 + rng.Intn(3)
		plain, sos := assignmentProblem(rng, nItems, nBins)
		sPlain, err := Solve(plain, Options{})
		if err != nil {
			return false
		}
		sSOS, err := Solve(sos, Options{})
		if err != nil {
			return false
		}
		if sPlain.Status != sSOS.Status {
			return false
		}
		if sPlain.Status != Optimal {
			return true
		}
		return math.Abs(sPlain.Obj-sSOS.Obj) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSOS1FindsBetterTreesNotWorseAnswers: on a structured instance the
// SOS solver must reach the optimum and the reported gap must close.
func TestSOS1GapCloses(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	_, sos := assignmentProblem(rng, 6, 3)
	s, err := Solve(sos, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status %v", s.Status)
	}
	if gap := s.Obj - s.Bound; gap > 1e-6 {
		t.Errorf("gap = %g after optimal", gap)
	}
	// Every SOS group sums to exactly 1 in the solution.
	for gi, grp := range sos.SOS1 {
		sum := 0.0
		for _, j := range grp {
			sum += s.X[j]
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("group %d sums to %g", gi, sum)
		}
	}
}
