package hls

import "math"

// Constraints carries the architecture constraints fed to the estimation
// engine: the clock grid, register margin and on-board memory timing. The
// paper's user constraint, a maximum clock width, is not modelled; the
// clock is whatever the slowest allocated component needs.
type Constraints struct {
	// ClockGridNS quantizes the chosen clock period (default 10 ns, the
	// granularity of the paper's reported clocks).
	ClockGridNS float64
	// RegSetupNS is register setup + clock-to-out margin added to the
	// slowest combinational path (default 4 ns).
	RegSetupNS float64
	// MemoryPorts is the number of concurrently usable on-board memory
	// ports (default 1: the paper's single 64K bank).
	MemoryPorts int
	// MemoryAccessNS is the on-board memory access time (default 25 ns).
	MemoryAccessNS float64
}

// withDefaults fills zero fields.
func (c Constraints) withDefaults() Constraints {
	if c.ClockGridNS == 0 {
		c.ClockGridNS = 10
	}
	if c.RegSetupNS == 0 {
		c.RegSetupNS = 4
	}
	if c.MemoryPorts == 0 {
		c.MemoryPorts = 1
	}
	if c.MemoryAccessNS == 0 {
		c.MemoryAccessNS = 25
	}
	return c
}

// ResourceBreakdown itemizes a CLB estimate.
type ResourceBreakdown struct {
	FUs        int // functional units
	MemIface   int // memory address/data interface
	Registers  int // value registers
	Controller int // FSM
	Rounded    int // final floorplanning-rounded total
}

// TaskEstimate is the estimation engine's output for one task: the inputs
// R(t) and D(t) of the temporal partitioning ILP.
type TaskEstimate struct {
	// CLBs is R(t), the floorplanning-rounded resource estimate.
	CLBs int
	// Cycles is the scheduled control-step count for one task execution.
	Cycles int
	// ClockNS is the selected clock period.
	ClockNS float64
	// DelayNS is D(t) = Cycles * ClockNS.
	DelayNS float64
	// Allocation is the functional-unit set used.
	Allocation Allocation
	// Schedule is the task-local schedule behind Cycles.
	Schedule *Schedule
	// Breakdown itemizes the CLB estimate.
	Breakdown ResourceBreakdown
}

// ChooseClock selects the design clock period: the slowest allocated
// component delay (or the memory access time if larger) plus register
// setup, rounded up to the clock grid.
func ChooseClock(alloc Allocation, lib *Library, cons Constraints) (float64, error) {
	cons = cons.withDefaults()
	d, err := alloc.MaxDelay(lib)
	if err != nil {
		return 0, err
	}
	d = math.Max(d, cons.MemoryAccessNS)
	period := d + cons.RegSetupNS
	return math.Ceil(period/cons.ClockGridNS) * cons.ClockGridNS, nil
}

// EstimateArea produces the CLB estimate for a task given its allocation.
//
// The model mirrors the paper's floorplanning-based layout estimation
// ([10,11]): functional units dominate; the memory interface scales with
// the widest datapath value; registers with the total registered bits; a
// small fixed controller; and the total is rounded to the nearest 10 CLBs
// as a floorplanning granularity.
func EstimateArea(g *OpGraph, alloc Allocation, lib *Library) (ResourceBreakdown, error) {
	fus, err := alloc.TotalCLBs(lib)
	if err != nil {
		return ResourceBreakdown{}, err
	}
	maxW := 0
	resultBits := 0
	hasMem := false
	for i := 0; i < g.NumOps(); i++ {
		op := g.Op(i)
		if op.Width > maxW {
			maxW = op.Width
		}
		if op.Kind.IsMemory() {
			hasMem = true
		}
		if op.Kind.NeedsFU() {
			w := op.Width
			if op.Kind == OpMul || op.Kind == OpMac {
				w = op.Width + lib.macAccExt // registered product width
			}
			resultBits += w
		}
	}
	bd := ResourceBreakdown{FUs: fus}
	if hasMem {
		bd.MemIface = (maxW + 1) / 2
	}
	bd.Registers = (resultBits + 15) / 16
	bd.Controller = 2
	total := bd.FUs + bd.MemIface + bd.Registers + bd.Controller
	bd.Rounded = int(math.Round(float64(total)/10) * 10)
	if bd.Rounded < bd.FUs { // rounding must never hide the FU floor
		bd.Rounded = total
	}
	return bd, nil
}

// EstimateTask runs the full estimation pipeline for a single task: minimal
// allocation, list scheduling against the allocation and one memory port,
// clock selection, and area estimation.
func EstimateTask(g *OpGraph, lib *Library, cons Constraints) (TaskEstimate, error) {
	cons = cons.withDefaults()
	if err := g.Validate(); err != nil {
		return TaskEstimate{}, err
	}
	alloc := MinimalAllocation(g)
	sched, err := ListSchedule([]*OpGraph{g}, []Allocation{alloc}, cons.MemoryPorts)
	if err != nil {
		return TaskEstimate{}, err
	}
	clock, err := ChooseClock(alloc, lib, cons)
	if err != nil {
		return TaskEstimate{}, err
	}
	bd, err := EstimateArea(g, alloc, lib)
	if err != nil {
		return TaskEstimate{}, err
	}
	return TaskEstimate{
		CLBs:       bd.Rounded,
		Cycles:     sched.Cycles,
		ClockNS:    clock,
		DelayNS:    float64(sched.Cycles) * clock,
		Allocation: alloc,
		Schedule:   sched,
		Breakdown:  bd,
	}, nil
}

// PartitionDesign is the synthesized result for one temporal partition:
// several task instances with private functional units sharing the board
// memory ports and a single merged controller.
type PartitionDesign struct {
	// Tasks are the behavioral graphs instantiated in this partition.
	Tasks []*OpGraph
	// Allocs are the per-task functional-unit sets.
	Allocs []Allocation
	// Schedule is the merged partition schedule.
	Schedule *Schedule
	// ClockNS is the partition clock (slowest component across all tasks).
	ClockNS float64
	// Cycles is the partition makespan for one computation.
	Cycles int
	// DelayNS is Cycles * ClockNS.
	DelayNS float64
	// CLBs is the summed area estimate of all task instances.
	CLBs int
}

// SynthesizePartition schedules a set of task instances as one temporal
// partition: each task keeps its private minimal allocation; all tasks
// share cons.MemoryPorts ports; the partition clock is set by the slowest
// component used by any task.
func SynthesizePartition(tasks []*OpGraph, lib *Library, cons Constraints) (*PartitionDesign, error) {
	cons = cons.withDefaults()
	if len(tasks) == 0 {
		return nil, ErrEmptyGraph
	}
	allocs := make([]Allocation, len(tasks))
	merged := Allocation{}
	clbs := 0
	for i, g := range tasks {
		allocs[i] = MinimalAllocation(g)
		for t, n := range allocs[i] {
			merged[t] += n
		}
		bd, err := EstimateArea(g, allocs[i], lib)
		if err != nil {
			return nil, err
		}
		clbs += bd.Rounded
	}
	sched, err := ListSchedule(tasks, allocs, cons.MemoryPorts)
	if err != nil {
		return nil, err
	}
	clock, err := ChooseClock(merged, lib, cons)
	if err != nil {
		return nil, err
	}
	return &PartitionDesign{
		Tasks:    tasks,
		Allocs:   allocs,
		Schedule: sched,
		ClockNS:  clock,
		Cycles:   sched.Cycles,
		DelayNS:  float64(sched.Cycles) * clock,
		CLBs:     clbs,
	}, nil
}

// SynthesizeStatic schedules all tasks as a single static (non-reconfigured)
// design with an explicit shared allocation — the paper's static co-design
// experiment style, where a fixed set of units (e.g. two 9-bit multipliers,
// two 17-bit multipliers, ...) serves every operation.
//
// Unlike SynthesizePartition, functional units are shared across tasks: the
// task list is merged into one op graph before scheduling.
func SynthesizeStatic(tasks []*OpGraph, alloc Allocation, lib *Library, cons Constraints) (*PartitionDesign, error) {
	cons = cons.withDefaults()
	if len(tasks) == 0 {
		return nil, ErrEmptyGraph
	}
	merged := NewOpGraph("static")
	for _, g := range tasks {
		base := merged.NumOps()
		for i := 0; i < g.NumOps(); i++ {
			op := g.Op(i)
			args := make([]int, len(op.Args))
			for k, a := range op.Args {
				args[k] = a + base
			}
			merged.Add(op.Kind, op.Width, op.Label, args...)
		}
	}
	sched, err := ListSchedule([]*OpGraph{merged}, []Allocation{alloc}, cons.MemoryPorts)
	if err != nil {
		return nil, err
	}
	clock, err := ChooseClock(alloc, lib, cons)
	if err != nil {
		return nil, err
	}
	bd, err := EstimateArea(merged, alloc, lib)
	if err != nil {
		return nil, err
	}
	return &PartitionDesign{
		Tasks:    []*OpGraph{merged},
		Allocs:   []Allocation{alloc},
		Schedule: sched,
		ClockNS:  clock,
		Cycles:   sched.Cycles,
		DelayNS:  float64(sched.Cycles) * clock,
		CLBs:     bd.Rounded,
	}, nil
}
