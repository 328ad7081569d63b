package jpeg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hls"
)

func randBlock(rng *rand.Rand) Block {
	var b Block
	for i := 0; i < N; i++ {
		for j := 0; j < N; j++ {
			b[i][j] = rng.Intn(256) - 128
		}
	}
	return b
}

func TestDCTFloatInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		x := randBlock(rng)
		z := DCTFloat(x)
		back := IDCTFloat(z)
		for i := 0; i < N; i++ {
			for j := 0; j < N; j++ {
				if math.Abs(back[i][j]-float64(x[i][j])) > 1e-9 {
					t.Fatalf("IDCT(DCT(x)) != x at (%d,%d): %g vs %d", i, j, back[i][j], x[i][j])
				}
			}
		}
	}
}

func TestDCTFloatDCCoefficient(t *testing.T) {
	// A constant block has all energy in DC: z[0][0] = N * value.
	var x Block
	for i := 0; i < N; i++ {
		for j := 0; j < N; j++ {
			x[i][j] = 100
		}
	}
	z := DCTFloat(x)
	if math.Abs(z[0][0]-400) > 1e-9 {
		t.Errorf("DC = %g, want 400", z[0][0])
	}
	for i := 0; i < N; i++ {
		for j := 0; j < N; j++ {
			if i == 0 && j == 0 {
				continue
			}
			if math.Abs(z[i][j]) > 1e-9 {
				t.Errorf("AC(%d,%d) = %g, want 0", i, j, z[i][j])
			}
		}
	}
}

func TestDCTParseval(t *testing.T) {
	// Orthonormal transform preserves energy.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		x := randBlock(rng)
		z := DCTFloat(x)
		ex, ez := 0.0, 0.0
		for i := 0; i < N; i++ {
			for j := 0; j < N; j++ {
				ex += float64(x[i][j]) * float64(x[i][j])
				ez += z[i][j] * z[i][j]
			}
		}
		if math.Abs(ex-ez) > 1e-6*math.Max(1, ex) {
			t.Fatalf("energy not preserved: %g vs %g", ex, ez)
		}
	}
}

// Property: the fixed-point hardware DCT tracks the float DCT within the
// quantization error bound of the Q6 coefficients.
func TestDCTFixedAccuracy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randBlock(rng)
		return MaxAbsError(x) <= 8.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDCTFixedIs32VectorProducts cross-checks that composing the exported
// T1/T2 task functions exactly reproduces DCTFixed (the task graph and the
// functional pipeline agree).
func TestDCTFixedIs32VectorProducts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cq := coefFixed()
	for trial := 0; trial < 20; trial++ {
		x := randBlock(rng)
		var y, z Block
		for i := 0; i < N; i++ {
			for j := 0; j < N; j++ {
				var col [N]int
				for k := 0; k < N; k++ {
					col[k] = x[k][j]
				}
				y[i][j] = VectorProductT1(cq[i], col)
			}
		}
		for i := 0; i < N; i++ {
			for j := 0; j < N; j++ {
				z[i][j] = VectorProductT2(y[i], cq[j])
			}
		}
		if z != DCTFixed(x) {
			t.Fatalf("manual 32-task composition differs from DCTFixed:\n%v\nvs\n%v", z, DCTFixed(x))
		}
	}
}

func TestT1IntermediateFits16Bits(t *testing.T) {
	// The T1 output must fit the 16-bit word the paper stores in memory.
	rng := rand.New(rand.NewSource(4))
	cq := coefFixed()
	for trial := 0; trial < 2000; trial++ {
		var col [N]int
		for k := range col {
			col[k] = rng.Intn(256) - 128
		}
		for i := 0; i < N; i++ {
			y := VectorProductT1(cq[i], col)
			if y > 32767 || y < -32768 {
				t.Fatalf("T1 output %d overflows 16 bits", y)
			}
		}
	}
}

func TestQuantizeRoundTripLossBounded(t *testing.T) {
	qt := DefaultQuantTable()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		z := randBlock(rng)
		q := Quantize(z, qt)
		d := Dequantize(q, qt)
		for i := 0; i < N; i++ {
			for j := 0; j < N; j++ {
				if diff := abs(d[i][j] - z[i][j]); diff > qt[i][j]/2+1 {
					t.Fatalf("quantization error %d exceeds half step %d", diff, qt[i][j])
				}
			}
		}
	}
}

func TestQuantTableScaling(t *testing.T) {
	base := DefaultQuantTable()
	hi, err := base.Scaled(90)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := base.Scaled(10)
	if err != nil {
		t.Fatal(err)
	}
	if !(hi[0][0] < base[0][0] && lo[0][0] > base[0][0]) {
		t.Errorf("scaling direction wrong: q90=%d q50=%d q10=%d", hi[0][0], base[0][0], lo[0][0])
	}
	mid, err := base.Scaled(50)
	if err != nil {
		t.Fatal(err)
	}
	if mid != base {
		t.Errorf("quality 50 should keep the base table")
	}
	if _, err := base.Scaled(0); err == nil {
		t.Error("quality 0 accepted")
	}
	if _, err := base.Scaled(101); err == nil {
		t.Error("quality 101 accepted")
	}
}

func TestZigZagRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		b := randBlock(rng)
		if UnZigZag(ZigZag(b)) != b {
			t.Fatal("zig-zag round trip failed")
		}
	}
	// The zig-zag order must be a permutation.
	seen := map[[2]int]bool{}
	for _, ij := range zigzag4 {
		if seen[ij] {
			t.Fatalf("duplicate zig-zag entry %v", ij)
		}
		seen[ij] = true
	}
	if len(seen) != N*N {
		t.Fatalf("zig-zag covers %d cells, want %d", len(seen), N*N)
	}
}

func TestBitWriterReader(t *testing.T) {
	w := &BitWriter{}
	w.WriteBits(0b101, 3)
	w.WriteBits(0xABCD, 16)
	w.WriteBits(1, 1)
	r := NewBitReader(w.Bytes())
	if v, _ := r.ReadBits(3); v != 0b101 {
		t.Errorf("got %b", v)
	}
	if v, _ := r.ReadBits(16); v != 0xABCD {
		t.Errorf("got %x", v)
	}
	if v, _ := r.ReadBits(1); v != 1 {
		t.Errorf("got %d", v)
	}
	if _, err := r.ReadBits(8); err == nil {
		t.Error("underrun not detected")
	}
	if w.Len() != 20 {
		t.Errorf("Len = %d, want 20", w.Len())
	}
}

func TestHuffmanBlocksRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	qt := DefaultQuantTable()
	var zz [][N * N]int
	for i := 0; i < 200; i++ {
		zz = append(zz, ZigZag(Quantize(DCTFixed(randBlock(rng)), qt)))
	}
	data, err := EncodeBlocks(zz)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBlocks(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(zz) {
		t.Fatalf("decoded %d blocks, want %d", len(back), len(zz))
	}
	for i := range zz {
		if back[i] != zz[i] {
			t.Fatalf("block %d mismatch:\n%v\nvs\n%v", i, back[i], zz[i])
		}
	}
}

// Property: Huffman round trip is lossless for arbitrary coefficient data,
// including all-zero and extreme values.
func TestHuffmanProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		zz := make([][N * N]int, n)
		for i := range zz {
			for k := 0; k < N*N; k++ {
				switch rng.Intn(4) {
				case 0:
					zz[i][k] = 0
				case 1:
					zz[i][k] = rng.Intn(5) - 2
				case 2:
					zz[i][k] = rng.Intn(2001) - 1000
				case 3:
					zz[i][k] = 0 // denser zeros to exercise runs
				}
			}
		}
		data, err := EncodeBlocks(zz)
		if err != nil {
			return false
		}
		back, err := DecodeBlocks(data)
		if err != nil || len(back) != n {
			return false
		}
		for i := range zz {
			if back[i] != zz[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSizeCategoryAndMagnitude(t *testing.T) {
	for _, v := range []int{-1000, -255, -1, 0, 1, 7, 8, 255, 1000} {
		s := sizeCategory(v)
		eb := magnitude(v, s)
		if got := demagnitude(eb.bits, s); got != v {
			t.Errorf("magnitude round trip %d -> %d", v, got)
		}
	}
	if sizeCategory(0) != 0 || sizeCategory(1) != 1 || sizeCategory(-1) != 1 || sizeCategory(255) != 8 {
		t.Error("size categories wrong")
	}
}

func TestImageBlocksRoundTrip(t *testing.T) {
	im := Synthesize(Photo, 32, 16, 42)
	blocks, err := im.Blocks()
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != (32/4)*(16/4) {
		t.Fatalf("got %d blocks", len(blocks))
	}
	back, err := FromBlocks(blocks, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range im.Pix {
		if im.Pix[i] != back.Pix[i] {
			t.Fatal("image block round trip changed pixels")
		}
	}
	if _, err := Synthesize(Noise, 30, 30, 1).Blocks(); err == nil {
		t.Error("non-multiple-of-4 image accepted")
	}
}

func TestCompressEndToEnd(t *testing.T) {
	for _, kind := range []SyntheticKind{Gradient, Checker, Photo, Noise} {
		im := Synthesize(kind, 64, 64, 9)
		res, err := Compress(im, 50)
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		if res.Blocks != 256 {
			t.Errorf("kind %d: blocks = %d", kind, res.Blocks)
		}
		if res.PSNRdB < 25 {
			t.Errorf("kind %d: PSNR %.1f dB too low", kind, res.PSNRdB)
		}
	}
	// Smooth images compress much better than noise.
	g, _ := Compress(Synthesize(Gradient, 64, 64, 9), 50)
	n, _ := Compress(Synthesize(Noise, 64, 64, 9), 50)
	if g.BitsPerPix >= n.BitsPerPix {
		t.Errorf("gradient (%.2f bpp) should compress better than noise (%.2f bpp)",
			g.BitsPerPix, n.BitsPerPix)
	}
}

func TestQualityTradeoff(t *testing.T) {
	im := Synthesize(Photo, 64, 64, 11)
	hi, err := Compress(im, 90)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := Compress(im, 10)
	if err != nil {
		t.Fatal(err)
	}
	if hi.PSNRdB <= lo.PSNRdB {
		t.Errorf("q90 PSNR %.1f <= q10 PSNR %.1f", hi.PSNRdB, lo.PSNRdB)
	}
	if hi.BitsPerPix <= lo.BitsPerPix {
		t.Errorf("q90 bpp %.2f <= q10 bpp %.2f", hi.BitsPerPix, lo.BitsPerPix)
	}
}

func TestBuildDCTGraphStructure(t *testing.T) {
	g, err := BuildDCTGraph(hls.XC4000Library(), hls.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() != 32 {
		t.Fatalf("tasks = %d, want 32", g.NumTasks())
	}
	if g.NumEdges() != 64 {
		t.Fatalf("edges = %d, want 64 (16 T2 x 4 deps)", g.NumEdges())
	}
	// Synthesis costs match the paper.
	t1 := g.Task(g.TaskByName(T1Name(0, 0)))
	if t1.Resources != 70 {
		t.Errorf("T1 resources = %d, want 70", t1.Resources)
	}
	t2 := g.Task(g.TaskByName(T2Name(0, 0)))
	if t2.Resources != 180 {
		t.Errorf("T2 resources = %d, want 180", t2.Resources)
	}
	// Roots are the 16 T1s, leaves the 16 T2s.
	leaves := 0
	for i := 0; i < g.NumTasks(); i++ {
		if len(g.Succs(i)) == 0 {
			leaves++
		}
	}
	if len(g.Roots()) != 16 || leaves != 16 {
		t.Errorf("roots/leaves = %d/%d, want 16/16", len(g.Roots()), leaves)
	}
	// 4 collections of 8 tasks: each T2 depends on exactly the 4 T1s of
	// its row.
	for i := 0; i < N; i++ {
		for j := 0; j < N; j++ {
			preds := g.Preds(g.TaskByName(T2Name(i, j)))
			if len(preds) != 4 {
				t.Fatalf("T2_%d%d has %d preds", i, j, len(preds))
			}
			for _, p := range preds {
				if g.Task(p).Type != "T1" {
					t.Fatalf("T2 pred %s is not T1", g.Task(p).Name)
				}
			}
		}
	}
	// Path count: each path is T1 -> T2 within a row: 16 per row x 4 rows.
	if n := g.CountPaths(0); n != 64 {
		t.Errorf("paths = %d, want 64", n)
	}
	// Interchangeability: the 4 T1s of each row form a group (so do the 4
	// T2s of each row): 8 groups of 4.
	groups := g.InterchangeableGroups()
	if len(groups) != 8 {
		t.Errorf("interchangeable groups = %d, want 8", len(groups))
	}
	for _, grp := range groups {
		if len(grp) != 4 {
			t.Errorf("group size = %d, want 4", len(grp))
		}
	}
}

func TestStaticDCTBehaviors(t *testing.T) {
	tasks := StaticDCTBehaviors()
	if len(tasks) != 32 {
		t.Fatalf("static behaviors = %d, want 32", len(tasks))
	}
	for _, g := range tasks {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	alloc := StaticAllocation()
	if alloc[hls.FUType{Kind: hls.OpMac, Width: 9}] != 2 ||
		alloc[hls.FUType{Kind: hls.OpMac, Width: 17}] != 2 {
		t.Error("static allocation is not 2x mac9 + 2x mac17")
	}
}

func TestPSNRIdentical(t *testing.T) {
	im := Synthesize(Photo, 16, 16, 1)
	p, err := PSNR(im, im)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(p, 1) {
		t.Errorf("PSNR(x,x) = %g, want +Inf", p)
	}
	if _, err := PSNR(im, Synthesize(Photo, 32, 16, 1)); err == nil {
		t.Error("size mismatch accepted")
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
