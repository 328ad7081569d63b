package dctn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/fission"
	"repro/internal/hls"
	"repro/internal/jpeg"
	"repro/internal/listpart"
	"repro/internal/tempart"
)

func randSquare(rng *rand.Rand, n int) [][]int {
	x := make([][]int, n)
	for i := range x {
		x[i] = make([]int, n)
		for j := range x[i] {
			x[i][j] = rng.Intn(256) - 128
		}
	}
	return x
}

// TestAgreesWithJPEGAt4: the generalized implementation must reproduce
// internal/jpeg's fixed-point DCT bit-for-bit at n=4.
func TestAgreesWithJPEGAt4(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var b jpeg.Block
		x := randSquare(rng, 4)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				b[i][j] = x[i][j]
			}
		}
		z, err := DCTFixed(x)
		if err != nil {
			return false
		}
		want := jpeg.DCTFixed(b)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				if z[i][j] != want[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestFixedTracksFloat8: fixed-point error stays bounded for 8x8 blocks.
func TestFixedTracksFloat8(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		x := randSquare(rng, 8)
		zq, err := DCTFixed(x)
		if err != nil {
			t.Fatal(err)
		}
		zf, err := DCTFloat(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				if d := math.Abs(float64(zq[i][j] - zf[i][j])); d > 16 {
					t.Fatalf("(%d,%d): fixed %d vs float %d", i, j, zq[i][j], zf[i][j])
				}
			}
		}
	}
}

func TestWidthsMatchPaperAt4(t *testing.T) {
	m1, a1, m2, a2 := Widths(4)
	if m1 != 9 || a1 != 16 || m2 != 17 || a2 != 24 {
		t.Errorf("Widths(4) = %d/%d/%d/%d, want 9/16/17/24", m1, a1, m2, a2)
	}
}

func TestBuildGraph4MatchesJPEGGraph(t *testing.T) {
	lib := hls.XC4000Library()
	g4, err := BuildGraph(4, lib, hls.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	gj, err := jpeg.BuildDCTGraph(lib, hls.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if g4.NumTasks() != gj.NumTasks() || g4.NumEdges() != gj.NumEdges() {
		t.Errorf("4x4 graphs differ: %d/%d tasks, %d/%d edges",
			g4.NumTasks(), gj.NumTasks(), g4.NumEdges(), gj.NumEdges())
	}
	// Same synthesis costs.
	if g4.Task(0).Resources != 70 {
		t.Errorf("T1 = %d CLBs, want 70", g4.Task(0).Resources)
	}
}

// TestDCT8PartitioningScale: the 8x8 graph (128 tasks) flows through the
// greedy partitioner and fission analysis on the paper's board.
func TestDCT8PartitioningScale(t *testing.T) {
	lib := hls.XC4000Library()
	g, err := BuildGraph(8, lib, hls.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() != 128 || g.NumEdges() != 8*64 {
		t.Fatalf("8x8 graph: %d tasks, %d edges", g.NumTasks(), g.NumEdges())
	}
	board := arch.PaperXC4044Board()
	n0 := tempart.MinPartitions(g, board)
	if n0 < 4 {
		t.Errorf("lower bound %d suspiciously small for 128 wide tasks", n0)
	}
	p, err := listpart.Solve(g, board)
	if err != nil {
		t.Fatal(err)
	}
	if p.N < n0 {
		t.Errorf("greedy N=%d below lower bound %d", p.N, n0)
	}
	if err := tempart.CheckFeasible(g, board, p.Assign, p.N); err != nil {
		t.Fatal(err)
	}
	a, err := fission.Analyze(g, p.Assign, p.N, board.Memory.Words)
	if err != nil {
		t.Fatal(err)
	}
	if a.K < 1 {
		t.Errorf("k = %d", a.K)
	}
	// 8x8: 64 distinct environment inputs and 64 outputs in total,
	// distributed over however many partitions greedy opened.
	envIn, envOut := 0, 0
	for i := 0; i < a.N; i++ {
		envIn += a.EnvIn[i]
		envOut += a.EnvOut[i]
	}
	if envIn != 64 || envOut != 64 {
		t.Errorf("env words = %d in / %d out, want 64/64", envIn, envOut)
	}
}

func TestBuildGraphErrors(t *testing.T) {
	if _, err := BuildGraph(1, hls.XC4000Library(), hls.Constraints{}); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := DCTFixed(nil); err == nil {
		t.Error("empty block accepted")
	}
	if _, err := DCTFixed([][]int{{1, 2}, {3}}); err == nil {
		t.Error("ragged block accepted")
	}
}

// TestMatrixOrthonormal: C * Cᵀ = I for several n.
func TestMatrixOrthonormal(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		c := Matrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				dot := 0.0
				for k := 0; k < n; k++ {
					dot += c[i][k] * c[j][k]
				}
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(dot-want) > 1e-9 {
					t.Fatalf("n=%d: (C Cᵀ)[%d][%d] = %g", n, i, j, dot)
				}
			}
		}
	}
}
