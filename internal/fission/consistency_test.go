package fission

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/dfg"
	"repro/internal/tempart"
)

// TestPlanMatchesAnalyticFormulas: the Plan's overhead fields must equal
// the paper's closed forms for random chains.
//
//	FDH: reconfig = N*CT*I_sw,  transfer = I * Σ(envIn+envOut) * D_sv
//	IDH: reconfig = N*CT,       transfer = I * Σ(In+Out) * D_sv
func TestPlanMatchesAnalyticFormulas(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		g := dfg.New("chain")
		assign := make([]int, n)
		for i := 0; i < n; i++ {
			g.MustAddTask(dfg.Task{
				Name:     string(rune('a' + i)),
				ReadEnv:  rng.Intn(6),
				WriteEnv: rng.Intn(6),
			})
			assign[i] = i
			if i > 0 {
				_ = g.AddEdgeByID(i-1, i, 1+rng.Intn(5))
			}
		}
		board := arch.PaperXC4044Board()
		a, err := Analyze(g, assign, n, board.Memory.Words)
		if err != nil {
			return false
		}
		iTotal := 1 + rng.Intn(500000)
		ct := board.FPGA.ReconfigTime
		dsv := board.Link.WordTransferNS

		fdh, err := NewPlan(a, board, FDH, iTotal, false)
		if err != nil {
			return false
		}
		isw := float64(fdh.Isw)
		if math.Abs(fdh.ReconfigNS-float64(n)*ct*isw) > 1 {
			return false
		}
		env := 0
		for i := 0; i < n; i++ {
			env += a.EnvIn[i] + a.EnvOut[i]
		}
		if math.Abs(fdh.TransferNS-float64(env*iTotal)*dsv) > 1 {
			return false
		}

		idh, err := NewPlan(a, board, IDH, iTotal, false)
		if err != nil {
			return false
		}
		if math.Abs(idh.ReconfigNS-float64(n)*ct) > 1 {
			return false
		}
		words := 0
		for i := 0; i < n; i++ {
			words += a.In[i] + a.Out[i]
		}
		return math.Abs(idh.TransferNS-float64(words*iTotal)*dsv) < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestIswCeiling: I_sw = ceil(I/k) over a boundary sweep.
func TestIswCeiling(t *testing.T) {
	g := dfg.New("g")
	g.MustAddTask(dfg.Task{Name: "a", ReadEnv: 16, WriteEnv: 16})
	board := arch.PaperXC4044Board()
	a, err := Analyze(g, []int{0}, 1, board.Memory.Words)
	if err != nil {
		t.Fatal(err)
	}
	if a.K != 2048 {
		t.Fatalf("k = %d", a.K)
	}
	cases := map[int]int{1: 1, 2047: 1, 2048: 1, 2049: 2, 4096: 2, 4097: 3}
	for I, want := range cases {
		p, err := NewPlan(a, board, FDH, I, false)
		if err != nil {
			t.Fatal(err)
		}
		if p.Isw != want {
			t.Errorf("I=%d: I_sw = %d, want %d", I, p.Isw, want)
		}
	}
}

// TestFissionStableUnderParallelPartitioning threads the default ILP solve
// — which races the pattern master against the row search on a goroutine
// of its own whenever a probe's rows root leaves it open — through the
// fission layer: the memory accounting and batch size k computed from its
// partitioning must be identical to the pinned row model's (the solvers
// are required to agree on the optimal latency; equal latency on these
// models pins N, and the analysis must then agree word for word).
func TestFissionStableUnderParallelPartitioning(t *testing.T) {
	board := arch.PaperXC4044Board()
	g := dfg.New("fis")
	for i := 0; i < 6; i++ {
		g.MustAddTask(dfg.Task{
			Name:      string(rune('a' + i)),
			Resources: 600,
			Delay:     float64(50 + 10*i),
			ReadEnv:   2,
			WriteEnv:  1,
		})
		if i > 0 {
			_ = g.AddEdgeByID(i-1, i, 4)
		}
	}
	seq, err := tempart.Solve(context.Background(), tempart.Input{
		Graph: g, Board: board, Formulation: tempart.FormulationRows,
	})
	if err != nil {
		t.Fatal(err)
	}
	par, err := tempart.Solve(context.Background(), tempart.Input{Graph: g, Board: board})
	if err != nil {
		t.Fatal(err)
	}
	if par.N != seq.N || math.Abs(par.Latency-seq.Latency) > 1e-6 {
		t.Fatalf("default N=%d latency=%g, rows N=%d latency=%g",
			par.N, par.Latency, seq.N, seq.Latency)
	}
	aSeq, err := Analyze(g, seq.Assign, seq.N, board.Memory.Words)
	if err != nil {
		t.Fatal(err)
	}
	aPar, err := Analyze(g, par.Assign, par.N, board.Memory.Words)
	if err != nil {
		t.Fatal(err)
	}
	if aPar.K != aSeq.K || aPar.MaxMTemp != aSeq.MaxMTemp {
		t.Errorf("default fission k=%d m_temp=%d, rows k=%d m_temp=%d",
			aPar.K, aPar.MaxMTemp, aSeq.K, aSeq.MaxMTemp)
	}
	for _, strat := range []Strategy{FDH, IDH} {
		pSeq, err := NewPlan(aSeq, board, strat, 10000, false)
		if err != nil {
			t.Fatal(err)
		}
		pPar, err := NewPlan(aPar, board, strat, 10000, false)
		if err != nil {
			t.Fatal(err)
		}
		if pPar.Reconfigurations != pSeq.Reconfigurations ||
			math.Abs(pPar.ReconfigNS+pPar.TransferNS-pSeq.ReconfigNS-pSeq.TransferNS) > 1 {
			t.Errorf("%v: default plan diverged (%d reconfigs, %g ns overhead vs %d, %g)",
				strat, pPar.Reconfigurations, pPar.ReconfigNS+pPar.TransferNS,
				pSeq.Reconfigurations, pSeq.ReconfigNS+pSeq.TransferNS)
		}
	}
}
