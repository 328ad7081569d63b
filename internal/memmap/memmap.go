// Package memmap implements the memory access synthesis of the paper's
// Sec. 3 (Fig. 6): all memory segments of one temporal partition are
// grouped into a Memory Block; k such blocks tile the physical on-board
// memory so that iteration i of the fissioned loop addresses block i.
//
// Address generation:
//
//	address = iteration·blockSize + segmentOffset + location
//
// With an arbitrary block size the iteration product needs a hardware
// multiplier; rounding the block size up to a power of two turns it into a
// simple concatenation of the iteration index with the in-block offset, at
// the cost of some memory wastage — the tradeoff the paper calls out.
package memmap

import (
	"errors"
	"fmt"

	"repro/internal/hls"
)

// Segment is one data flow stored in a partition's memory block (an M1, M2,
// M3 of Fig. 6).
type Segment struct {
	Name  string
	Words int
}

// Layout places segments at consecutive offsets inside one memory block.
type Layout struct {
	Segments []Segment
	// Offsets[i] is Segments[i]'s starting word within the block.
	Offsets []int
	// BlockWords is the exact block size (sum of segment sizes).
	BlockWords int
	// RoundedWords is the power-of-two rounded block size.
	RoundedWords int
}

// Errors.
var (
	ErrEmptyLayout   = errors.New("memmap: no segments")
	ErrUnknownSeg    = errors.New("memmap: unknown segment")
	ErrOutOfSegment  = errors.New("memmap: location outside segment")
	ErrBlockOverflow = errors.New("memmap: iteration exceeds capacity")
)

// NewLayout builds a block layout from segments in the given order.
func NewLayout(segments []Segment) (*Layout, error) {
	if len(segments) == 0 {
		return nil, ErrEmptyLayout
	}
	l := &Layout{Segments: segments, Offsets: make([]int, len(segments))}
	off := 0
	for i, s := range segments {
		if s.Words <= 0 {
			return nil, fmt.Errorf("memmap: segment %q has %d words", s.Name, s.Words)
		}
		l.Offsets[i] = off
		off += s.Words
	}
	l.BlockWords = off
	l.RoundedWords = NextPow2(off)
	return l, nil
}

// NextPow2 returns the smallest power of two >= n (n >= 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// SegmentIndex resolves a segment by name.
func (l *Layout) SegmentIndex(name string) (int, error) {
	for i, s := range l.Segments {
		if s.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: %q", ErrUnknownSeg, name)
}

// Wastage returns the words lost per block to power-of-two rounding.
func (l *Layout) Wastage() int { return l.RoundedWords - l.BlockWords }

// Address computes the physical word address of (iteration, segment,
// location). With pow2 true it uses the concatenation-style address
// (iteration << log2(RoundedWords)); otherwise the exact multiply.
func (l *Layout) Address(iteration, segIdx, location int, pow2 bool) (int, error) {
	if segIdx < 0 || segIdx >= len(l.Segments) {
		return 0, fmt.Errorf("%w: index %d", ErrUnknownSeg, segIdx)
	}
	if location < 0 || location >= l.Segments[segIdx].Words {
		return 0, fmt.Errorf("%w: segment %q location %d", ErrOutOfSegment, l.Segments[segIdx].Name, location)
	}
	if iteration < 0 {
		return 0, fmt.Errorf("memmap: negative iteration %d", iteration)
	}
	base := iteration * l.BlockWords
	if pow2 {
		base = iteration * l.RoundedWords // == iteration << log2(RoundedWords)
	}
	return base + l.Offsets[segIdx] + location, nil
}

// CheckFit verifies that k iterations fit in memWords.
func (l *Layout) CheckFit(k, memWords int, pow2 bool) error {
	bs := l.BlockWords
	if pow2 {
		bs = l.RoundedWords
	}
	if k*bs > memWords {
		return fmt.Errorf("%w: %d blocks x %d words > %d", ErrBlockOverflow, k, bs, memWords)
	}
	return nil
}

// AddressGenCost models the hardware cost of the two address generation
// schemes for a given iteration-counter width, using the same component
// library as the datapath estimation. The multiply scheme needs a hardware
// multiplier (iteration × blockSize) plus an adder; the power-of-two scheme
// needs only the adder, because the product degenerates to wiring
// (concatenation).
type AddressGenCost struct {
	CLBs    int
	DelayNS float64
}

// AddressGenCosts returns (multiply-based, concatenation-based) costs for
// an address path of the given bit width.
func AddressGenCosts(lib *hls.Library, addrBits int) (mul, concat AddressGenCost, err error) {
	mulC, err := lib.Component(hls.OpMul, addrBits)
	if err != nil {
		return mul, concat, err
	}
	addC, err := lib.Component(hls.OpAdd, addrBits)
	if err != nil {
		return mul, concat, err
	}
	mul = AddressGenCost{CLBs: mulC.CLBs + addC.CLBs, DelayNS: mulC.DelayNS + addC.DelayNS}
	concat = AddressGenCost{CLBs: addC.CLBs, DelayNS: addC.DelayNS}
	return mul, concat, nil
}

// RewriteAccess renders the paper's Sec. 3 code transformation for a memory
// access: the pre-fission form "Read(M1[a])" becomes the block-indexed form
// "Read(Block[i][offset(M1) + a])".
func (l *Layout) RewriteAccess(segName string, location int) (string, error) {
	idx, err := l.SegmentIndex(segName)
	if err != nil {
		return "", err
	}
	if location < 0 || location >= l.Segments[idx].Words {
		return "", fmt.Errorf("%w: segment %q location %d", ErrOutOfSegment, segName, location)
	}
	return fmt.Sprintf("Block[i][%d /* offset of %s */ + %d]", l.Offsets[idx], segName, location), nil
}
