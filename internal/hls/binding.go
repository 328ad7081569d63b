package hls

import (
	"fmt"
	"sort"
)

// Register binding: after scheduling, each operation's result must live in
// a register from the cycle after it executes until the last cycle in which
// a consumer reads it. Values with disjoint lifetimes share a register
// (left-edge algorithm), which is the classical HLS datapath optimization
// the paper's synthesis backend (DSS) performs before layout estimation.

// OpRef addresses an operation within a multi-task partition schedule.
type OpRef struct {
	Task, Op int
}

// Lifetime is a value's live interval in control steps: [Start, End].
// Start is the cycle after the producing op executes; End is the cycle of
// the last consumer (Start-1 means the value is never consumed and needs
// no register beyond its defining cycle).
type Lifetime struct {
	Ref        OpRef
	Start, End int
	Width      int
}

// RegisterBinding maps values to shared physical registers.
type RegisterBinding struct {
	// Assign maps each registered value to a register index.
	Assign map[OpRef]int
	// Widths holds each physical register's width (the maximum width of
	// the values it carries).
	Widths []int
	// Lifetimes lists the analyzed intervals (sorted by start).
	Lifetimes []Lifetime
}

// NumRegisters returns the number of physical registers allocated.
func (rb *RegisterBinding) NumRegisters() int { return len(rb.Widths) }

// resultWidth returns the registered width of an op's result.
func resultWidth(g *OpGraph, lib *Library, op Op) int {
	if op.Kind == OpMul || op.Kind == OpMac {
		ext := 7
		if lib != nil {
			ext = lib.macAccExt
		}
		return op.Width + ext
	}
	return op.Width
}

// AnalyzeLifetimes computes the live interval of every value-producing op
// in a partition schedule. Writes produce no value; reads and arithmetic
// ops do. Free ops (consts, shifts) are folded into their consumers.
func AnalyzeLifetimes(tasks []*OpGraph, sched *Schedule, lib *Library) ([]Lifetime, error) {
	cycleOf := make([]map[int]int, len(tasks))
	for i := range cycleOf {
		cycleOf[i] = map[int]int{}
	}
	for _, so := range sched.Ops {
		cycleOf[so.Task][so.Op] = so.Cycle
	}
	var out []Lifetime
	for ti, g := range tasks {
		// lastUse[op] = latest consumer cycle.
		lastUse := map[int]int{}
		var noteUse func(producer, consumerCycle int)
		noteUse = func(producer, consumerCycle int) {
			p := g.Op(producer)
			if p.Kind.IsFree() {
				// Fold through free ops to their own producers.
				for _, a := range p.Args {
					noteUse(a, consumerCycle)
				}
				return
			}
			if c, ok := lastUse[producer]; !ok || consumerCycle > c {
				lastUse[producer] = consumerCycle
			}
		}
		for i := 0; i < g.NumOps(); i++ {
			op := g.Op(i)
			if op.Kind.IsFree() {
				continue
			}
			c, ok := cycleOf[ti][i]
			if !ok {
				return nil, fmt.Errorf("hls: op (%d,%d) missing from schedule", ti, i)
			}
			for _, a := range op.Args {
				noteUse(a, c)
			}
		}
		for i := 0; i < g.NumOps(); i++ {
			op := g.Op(i)
			if op.Kind.IsFree() || op.Kind == OpWrite {
				continue
			}
			start := cycleOf[ti][i] + 1
			end, used := lastUse[i]
			if !used {
				end = start - 1 // dead value; zero-length lifetime
			}
			out = append(out, Lifetime{
				Ref:   OpRef{ti, i},
				Start: start,
				End:   end,
				Width: resultWidth(g, lib, op),
			})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Start != out[b].Start {
			return out[a].Start < out[b].Start
		}
		if out[a].Ref.Task != out[b].Ref.Task {
			return out[a].Ref.Task < out[b].Ref.Task
		}
		return out[a].Ref.Op < out[b].Ref.Op
	})
	return out, nil
}

// BindRegisters runs the left-edge algorithm over the value lifetimes:
// values are placed into the first register whose current occupant's
// lifetime has ended. Register widths grow to the widest value bound.
func BindRegisters(tasks []*OpGraph, sched *Schedule, lib *Library) (*RegisterBinding, error) {
	lifetimes, err := AnalyzeLifetimes(tasks, sched, lib)
	if err != nil {
		return nil, err
	}
	rb := &RegisterBinding{Assign: map[OpRef]int{}, Lifetimes: lifetimes}
	freeAt := []int{} // per register: first cycle it is free again
	for _, lt := range lifetimes {
		placed := -1
		for r := range freeAt {
			if freeAt[r] <= lt.Start {
				placed = r
				break
			}
		}
		if placed < 0 {
			placed = len(freeAt)
			freeAt = append(freeAt, 0)
			rb.Widths = append(rb.Widths, 0)
		}
		// Occupied through End (inclusive); free the cycle after.
		end := lt.End
		if end < lt.Start {
			end = lt.Start // dead values still hold their defining slot
		}
		freeAt[placed] = end + 1
		if lt.Width > rb.Widths[placed] {
			rb.Widths[placed] = lt.Width
		}
		rb.Assign[lt.Ref] = placed
	}
	return rb, nil
}

// Verify checks the binding: no two overlapping lifetimes share a register
// and every value is assigned.
func (rb *RegisterBinding) Verify() error {
	byReg := map[int][]Lifetime{}
	for _, lt := range rb.Lifetimes {
		r, ok := rb.Assign[lt.Ref]
		if !ok {
			return fmt.Errorf("hls: value %v unbound", lt.Ref)
		}
		if r < 0 || r >= len(rb.Widths) {
			return fmt.Errorf("hls: value %v bound to invalid register %d", lt.Ref, r)
		}
		if lt.Width > rb.Widths[r] {
			return fmt.Errorf("hls: register %d (width %d) narrower than value %v (width %d)",
				r, rb.Widths[r], lt.Ref, lt.Width)
		}
		byReg[r] = append(byReg[r], lt)
	}
	for r, ls := range byReg {
		sort.Slice(ls, func(a, b int) bool { return ls[a].Start < ls[b].Start })
		for i := 1; i < len(ls); i++ {
			prevEnd := ls[i-1].End
			if prevEnd < ls[i-1].Start {
				prevEnd = ls[i-1].Start
			}
			if ls[i].Start <= prevEnd {
				return fmt.Errorf("hls: register %d double-booked at cycle %d (%v and %v)",
					r, ls[i].Start, ls[i-1].Ref, ls[i].Ref)
			}
		}
	}
	return nil
}
