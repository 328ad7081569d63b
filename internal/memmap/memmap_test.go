package memmap

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hls"
)

// fig6Layout builds the M1+M2+M3 block of the paper's Fig. 6.
func fig6Layout(t *testing.T) *Layout {
	t.Helper()
	l, err := NewLayout([]Segment{
		{Name: "M1", Words: 16},
		{Name: "M2", Words: 16},
		{Name: "M3", Words: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLayoutOffsets(t *testing.T) {
	l := fig6Layout(t)
	if l.BlockWords != 40 {
		t.Errorf("block = %d, want 40", l.BlockWords)
	}
	if l.RoundedWords != 64 {
		t.Errorf("rounded = %d, want 64", l.RoundedWords)
	}
	if l.Wastage() != 24 {
		t.Errorf("wastage = %d, want 24", l.Wastage())
	}
	wantOffsets := []int{0, 16, 32}
	for i, w := range wantOffsets {
		if l.Offsets[i] != w {
			t.Errorf("offset[%d] = %d, want %d", i, l.Offsets[i], w)
		}
	}
}

func TestAddressExactVsPow2(t *testing.T) {
	l := fig6Layout(t)
	// Iteration 0 addresses agree between the two schemes.
	a0, err := l.Address(0, 1, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	b0, _ := l.Address(0, 1, 5, true)
	if a0 != 21 || b0 != 21 {
		t.Errorf("iteration 0 addresses = %d/%d, want 21", a0, b0)
	}
	// Iteration 3: exact = 3*40+21 = 141; pow2 = 3*64+21 = 213.
	a3, _ := l.Address(3, 1, 5, false)
	b3, _ := l.Address(3, 1, 5, true)
	if a3 != 141 {
		t.Errorf("exact addr = %d, want 141", a3)
	}
	if b3 != 213 {
		t.Errorf("pow2 addr = %d, want 213", b3)
	}
	// The pow2 address is exactly iteration << log2(64) | offset.
	if b3 != 3<<6+21 {
		t.Errorf("pow2 addr %d is not a concatenation", b3)
	}
}

func TestAddressErrors(t *testing.T) {
	l := fig6Layout(t)
	if _, err := l.Address(0, 5, 0, false); !errors.Is(err, ErrUnknownSeg) {
		t.Errorf("bad segment: %v", err)
	}
	if _, err := l.Address(0, 0, 16, false); !errors.Is(err, ErrOutOfSegment) {
		t.Errorf("bad location: %v", err)
	}
	if _, err := l.Address(-1, 0, 0, false); err == nil {
		t.Error("negative iteration accepted")
	}
	if _, err := NewLayout(nil); !errors.Is(err, ErrEmptyLayout) {
		t.Errorf("empty layout: %v", err)
	}
	if _, err := NewLayout([]Segment{{Name: "z", Words: 0}}); err == nil {
		t.Error("zero-word segment accepted")
	}
}

func TestSegmentIndex(t *testing.T) {
	l := fig6Layout(t)
	i, err := l.SegmentIndex("M2")
	if err != nil || i != 1 {
		t.Errorf("SegmentIndex(M2) = %d, %v", i, err)
	}
	if _, err := l.SegmentIndex("M9"); !errors.Is(err, ErrUnknownSeg) {
		t.Errorf("unknown segment: %v", err)
	}
}

func TestMaxIterationsAndFit(t *testing.T) {
	l := fig6Layout(t)
	// 64K words hold at most 65536/40 = 1638 exact blocks and 65536/64 =
	// 1024 power-of-two blocks.
	for _, c := range []struct {
		pow2 bool
		max  int
	}{{false, 1638}, {true, 1024}} {
		if err := l.CheckFit(c.max, 65536, c.pow2); err != nil {
			t.Error(err)
		}
		if err := l.CheckFit(c.max+1, 65536, c.pow2); !errors.Is(err, ErrBlockOverflow) {
			t.Errorf("pow2=%v: overflow at %d blocks not caught: %v", c.pow2, c.max+1, err)
		}
	}
}

// Property: addresses never collide across (iteration, segment, location)
// triples within capacity, for either addressing scheme.
func TestAddressDisjointnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nSeg := 1 + rng.Intn(4)
		segs := make([]Segment, nSeg)
		for i := range segs {
			segs[i] = Segment{Name: string(rune('A' + i)), Words: 1 + rng.Intn(12)}
		}
		l, err := NewLayout(segs)
		if err != nil {
			return false
		}
		for _, pow2 := range []bool{false, true} {
			bs := l.BlockWords
			if pow2 {
				bs = l.RoundedWords
			}
			k := 512 / bs
			if k > 6 {
				k = 6
			}
			seen := map[int]bool{}
			for it := 0; it < k; it++ {
				for si, s := range segs {
					for loc := 0; loc < s.Words; loc++ {
						a, err := l.Address(it, si, loc, pow2)
						if err != nil || a < 0 || seen[a] {
							return false
						}
						seen[a] = true
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPow2AddressIsConcatenation: the pow2 address equals bitwise OR of the
// shifted iteration and the in-block offset (no carries), which is what
// makes the hardware a concatenation instead of a multiplier.
func TestPow2AddressIsConcatenation(t *testing.T) {
	l := fig6Layout(t)
	for it := 0; it < 8; it++ {
		for si, s := range l.Segments {
			for loc := 0; loc < s.Words; loc++ {
				a, err := l.Address(it, si, loc, true)
				if err != nil {
					t.Fatal(err)
				}
				inBlock := l.Offsets[si] + loc
				if a != it*l.RoundedWords|inBlock {
					t.Fatalf("addr %d is not it<<log2|off (it=%d off=%d)", a, it, inBlock)
				}
			}
		}
	}
}

func TestAddressGenCosts(t *testing.T) {
	lib := hls.XC4000Library()
	mul, concat, err := AddressGenCosts(lib, 16)
	if err != nil {
		t.Fatal(err)
	}
	if mul.CLBs <= concat.CLBs {
		t.Errorf("multiplier scheme (%d CLBs) must cost more than concatenation (%d)", mul.CLBs, concat.CLBs)
	}
	if mul.DelayNS <= concat.DelayNS {
		t.Errorf("multiplier delay %.1f must exceed concatenation %.1f", mul.DelayNS, concat.DelayNS)
	}
	if _, _, err := AddressGenCosts(lib, 0); err == nil {
		t.Error("zero-width address path accepted")
	}
}

func TestRewriteAccess(t *testing.T) {
	l := fig6Layout(t)
	s, err := l.RewriteAccess("M2", 5)
	if err != nil {
		t.Fatal(err)
	}
	want := "Block[i][16 /* offset of M2 */ + 5]"
	if s != want {
		t.Errorf("rewrite = %q, want %q", s, want)
	}
	if _, err := l.RewriteAccess("M9", 0); err == nil {
		t.Error("unknown segment accepted")
	}
	if _, err := l.RewriteAccess("M3", 8); err == nil {
		t.Error("out-of-segment location accepted")
	}
}
