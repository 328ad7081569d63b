// Package hls implements the behavior-level high-level-synthesis estimation
// engine of the paper's design flow (the role played by DSS [13]): given an
// operation-level behavioral description of a task, it estimates the FPGA
// resources (CLBs) and execution delay of the task for a characterized
// device, schedules operations under functional-unit and memory-port
// constraints, and synthesizes the controller FSM — including the augmented
// RTR controller of Fig. 7 with an iteration counter and start/finish
// handshake.
package hls

import (
	"errors"
	"fmt"
)

// OpKind enumerates behavioral operation kinds.
type OpKind int

const (
	// OpConst is a synthesis-time constant (folded into LUT ROMs; costs no
	// cycle and no functional unit).
	OpConst OpKind = iota
	// OpRead reads one word from the on-board memory (uses a memory port).
	OpRead
	// OpWrite writes one word to the on-board memory (uses a memory port).
	OpWrite
	// OpAdd is a two-input addition.
	OpAdd
	// OpSub is a two-input subtraction.
	OpSub
	// OpMul is a two-input multiplication.
	OpMul
	// OpMac is a chained multiply-accumulate (a*b or a*b+acc); the
	// multiplier and adder are chained combinationally inside one cycle,
	// trading a slower clock for fewer cycles.
	OpMac
	// OpShl is a constant left shift (wiring only on FPGAs, but kept as an
	// op for bit-width bookkeeping).
	OpShl
	// OpShr is a constant right shift.
	OpShr
)

var opKindNames = map[OpKind]string{
	OpConst: "const", OpRead: "read", OpWrite: "write", OpAdd: "add",
	OpSub: "sub", OpMul: "mul", OpMac: "mac", OpShl: "shl", OpShr: "shr",
}

func (k OpKind) String() string {
	if s, ok := opKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// IsMemory reports whether the op consumes a memory port.
func (k OpKind) IsMemory() bool { return k == OpRead || k == OpWrite }

// NeedsFU reports whether the op occupies a functional unit for a cycle.
func (k OpKind) NeedsFU() bool {
	switch k {
	case OpAdd, OpSub, OpMul, OpMac:
		return true
	}
	return false
}

// IsFree reports whether the op costs neither a cycle nor a resource
// (constants and constant shifts, which are wiring on an FPGA).
func (k OpKind) IsFree() bool { return k == OpConst || k == OpShl || k == OpShr }

// Op is one behavioral operation. Args index earlier operations in the same
// OpGraph, which makes every OpGraph a DAG by construction.
type Op struct {
	Kind OpKind
	// Width is the result bit width (for OpMul, the *input* operand width;
	// the product is tracked by the consuming op's width).
	Width int
	// Label carries the memory segment name for reads/writes and is free
	// form otherwise.
	Label string
	// Args are producer op indices (must be < this op's own index).
	Args []int
}

// OpGraph is a behavioral data-flow graph for a single task.
type OpGraph struct {
	Name string
	ops  []Op
}

// NewOpGraph returns an empty op graph.
func NewOpGraph(name string) *OpGraph { return &OpGraph{Name: name} }

// Add appends an operation and returns its index. It panics if an argument
// index is out of range (builder misuse, not runtime input).
func (g *OpGraph) Add(kind OpKind, width int, label string, args ...int) int {
	for _, a := range args {
		if a < 0 || a >= len(g.ops) {
			panic(fmt.Sprintf("hls: op arg %d out of range (graph %q has %d ops)", a, g.Name, len(g.ops)))
		}
	}
	g.ops = append(g.ops, Op{Kind: kind, Width: width, Label: label, Args: args})
	return len(g.ops) - 1
}

// NumOps returns the number of operations.
func (g *OpGraph) NumOps() int { return len(g.ops) }

// Op returns operation i.
func (g *OpGraph) Op(i int) Op { return g.ops[i] }

// Validate checks argument arities and widths.
func (g *OpGraph) Validate() error {
	for i, op := range g.ops {
		if op.Width <= 0 && op.Kind != OpWrite {
			return fmt.Errorf("hls: %s op %d has non-positive width", op.Kind, i)
		}
		var wantArgs string
		switch op.Kind {
		case OpConst, OpRead:
			if len(op.Args) != 0 {
				wantArgs = "0"
			}
		case OpWrite:
			if len(op.Args) != 1 {
				wantArgs = "1"
			}
		case OpAdd, OpSub, OpMul:
			if len(op.Args) != 2 {
				wantArgs = "2"
			}
		case OpMac:
			if len(op.Args) != 2 && len(op.Args) != 3 {
				wantArgs = "2 or 3"
			}
		case OpShl, OpShr:
			if len(op.Args) != 1 {
				wantArgs = "1"
			}
		default:
			return fmt.Errorf("hls: op %d has unknown kind %d", i, int(op.Kind))
		}
		if wantArgs != "" {
			return fmt.Errorf("hls: %s op %d has %d args, want %s", op.Kind, i, len(op.Args), wantArgs)
		}
		for _, a := range op.Args {
			if a >= i {
				return fmt.Errorf("hls: op %d references later op %d", i, a)
			}
		}
	}
	return nil
}

// ErrEmptyGraph is returned when estimating an op graph with no
// schedulable operations.
var ErrEmptyGraph = errors.New("hls: op graph has no schedulable operations")

// VectorProduct builds the paper's Fig. 8 task: an n-element dot product of
// a memory-resident vector with a constant coefficient vector, reading from
// segment inSeg and writing to outSeg.
//
// mulWidth is the multiplier input width (9 or 17 in the case study);
// accWidth the accumulator/adder width (16 or 24). When chained is true the
// multiply-accumulates are emitted as OpMac (the static-design style);
// otherwise separate OpMul/OpAdd are used (the RTR task style).
func VectorProduct(name string, n, mulWidth, accWidth int, inSeg, outSeg string, chained bool) *OpGraph {
	g := NewOpGraph(name)
	if chained {
		acc := -1
		for i := 0; i < n; i++ {
			x := g.Add(OpRead, mulWidth, inSeg)
			c := g.Add(OpConst, mulWidth, fmt.Sprintf("c%d", i))
			if acc < 0 {
				acc = g.Add(OpMac, mulWidth, "", x, c)
			} else {
				acc = g.Add(OpMac, mulWidth, "", x, c, acc)
			}
		}
		g.Add(OpWrite, accWidth, outSeg, acc)
		return g
	}
	prods := make([]int, n)
	for i := 0; i < n; i++ {
		x := g.Add(OpRead, mulWidth, inSeg)
		c := g.Add(OpConst, mulWidth, fmt.Sprintf("c%d", i))
		prods[i] = g.Add(OpMul, mulWidth, "", x, c)
	}
	acc := prods[0]
	for i := 1; i < n; i++ {
		acc = g.Add(OpAdd, accWidth, "", acc, prods[i])
	}
	g.Add(OpWrite, accWidth, outSeg, acc)
	return g
}
