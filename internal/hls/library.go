package hls

import (
	"fmt"
	"math"
)

// Component is a characterized datapath component: the CLB cost and
// combinational delay of one functional unit instance on the target device.
type Component struct {
	Kind    OpKind
	Width   int
	Name    string
	CLBs    int
	DelayNS float64
}

// Library characterizes a device family. The paper's estimation engine
// "makes use of a component library characterized for the particular
// reconfigurable device"; this is that library for an XC4000-class part.
//
// Characterization formulas, calibrated so the DCT's T1 and T2 tasks
// estimate to the paper's 70 and 180 CLBs at 50 and 70 ns clocks
// (TestTaskEstimatesMatchPaper and TestLibraryCalibration pin them):
//
//	adder/subtractor (W bits):  ceil(W/2)+1 CLBs,  0.7*W + 8 ns
//	array multiplier (W x W):   ceil(W*W/2) CLBs,  3*W + 14 ns
//	multiply-accumulate (W):    mul(W) + add(W+7) chained
//
// A W-bit ripple adder packs two bit slices per XC4000 CLB; a W x W array
// multiplier needs about W*(W-1) full adders plus AND gates, i.e. ~W^2/2
// CLBs. The MAC chains the multiplier into a (W+7)-bit accumulator, which
// matches the paper's pairing of 9-bit multipliers with 16-bit adders and
// 17-bit multipliers with 24-bit adders.
type Library struct {
	Name string
	// AddCLB etc. may be overridden for other device families; the zero
	// value is not usable — construct with XC4000Library.
	addCLB    func(w int) int
	addDelay  func(w int) float64
	mulCLB    func(w int) int
	mulDelay  func(w int) float64
	macAccExt int // accumulator width extension for MACs
}

// XC4000Library returns the component library characterized for the Xilinx
// XC4000 family used in the paper's case study.
func XC4000Library() *Library {
	return &Library{
		Name:      "XC4000",
		addCLB:    func(w int) int { return (w+1)/2 + 1 },
		addDelay:  func(w int) float64 { return 0.7*float64(w) + 8 },
		mulCLB:    func(w int) int { return (w*w + 1) / 2 },
		mulDelay:  func(w int) float64 { return 3*float64(w) + 14 },
		macAccExt: 7,
	}
}

// Component characterizes one functional unit of the given kind and width.
// OpConst, OpShl, OpShr, OpRead and OpWrite have no functional unit; asking
// for one is an error.
func (l *Library) Component(kind OpKind, width int) (Component, error) {
	if width <= 0 {
		return Component{}, fmt.Errorf("hls: component width must be positive, got %d", width)
	}
	switch kind {
	case OpAdd, OpSub:
		return Component{
			Kind: kind, Width: width,
			Name:    fmt.Sprintf("%s%d", kind, width),
			CLBs:    l.addCLB(width),
			DelayNS: l.addDelay(width),
		}, nil
	case OpMul:
		return Component{
			Kind: kind, Width: width,
			Name:    fmt.Sprintf("mul%d", width),
			CLBs:    l.mulCLB(width),
			DelayNS: l.mulDelay(width),
		}, nil
	case OpMac:
		accW := width + l.macAccExt
		return Component{
			Kind: kind, Width: width,
			Name:    fmt.Sprintf("mac%d", width),
			CLBs:    l.mulCLB(width) + l.addCLB(accW),
			DelayNS: l.mulDelay(width) + l.addDelay(accW),
		}, nil
	}
	return Component{}, fmt.Errorf("hls: no functional unit for op kind %s", kind)
}

// FUType identifies a functional-unit type: the pair (kind, width).
type FUType struct {
	Kind  OpKind
	Width int
}

func (t FUType) String() string { return fmt.Sprintf("%s%d", t.Kind, t.Width) }

// Allocation maps functional-unit types to instance counts.
type Allocation map[FUType]int

// MinimalAllocation allocates exactly one functional unit per distinct
// (kind, width) used by the graph — the paper's area-minimal task style in
// which operations of a type share a single unit.
func MinimalAllocation(g *OpGraph) Allocation {
	a := Allocation{}
	for i := 0; i < g.NumOps(); i++ {
		op := g.Op(i)
		if op.Kind.NeedsFU() {
			t := FUType{op.Kind, op.Width}
			if a[t] == 0 {
				a[t] = 1
			}
		}
	}
	return a
}

// TotalCLBs sums the CLB cost of all allocated functional units.
func (a Allocation) TotalCLBs(lib *Library) (int, error) {
	sum := 0
	for t, n := range a {
		c, err := lib.Component(t.Kind, t.Width)
		if err != nil {
			return 0, err
		}
		sum += n * c.CLBs
	}
	return sum, nil
}

// MaxDelay returns the slowest component delay in the allocation.
func (a Allocation) MaxDelay(lib *Library) (float64, error) {
	d := 0.0
	for t, n := range a {
		if n == 0 {
			continue
		}
		c, err := lib.Component(t.Kind, t.Width)
		if err != nil {
			return 0, err
		}
		d = math.Max(d, c.DelayNS)
	}
	return d, nil
}
