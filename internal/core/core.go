// Package core is the top-level design flow of the paper's Fig. 2 — the
// role the SPARCS environment plays around the two contributions: starting
// from a behavior-level task graph it runs task estimation (internal/hls),
// temporal partitioning (internal/tempart: the ILP, or the list-based
// baseline), loop fission analysis (internal/fission), per-partition
// synthesis with the augmented RTR controller, memory block layout
// (internal/memmap), RTL generation (internal/rtl), host sequencer code
// generation, and finally execution-time evaluation on the simulated board
// (internal/sim).
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/dfg"
	"repro/internal/fission"
	"repro/internal/hls"
	"repro/internal/jpeg"
	"repro/internal/memmap"
	"repro/internal/rtl"
	"repro/internal/sim"
	"repro/internal/tempart"
)

// PartitionerKind selects the temporal partitioning algorithm.
type PartitionerKind int

const (
	// ILPPartitioner is the paper's optimal ILP formulation.
	ILPPartitioner PartitionerKind = iota
	// ListPartitioner is the greedy baseline of Sec. 4's comparison.
	ListPartitioner
)

func (k PartitionerKind) String() string {
	switch k {
	case ILPPartitioner:
		return "ilp"
	case ListPartitioner:
		return "list"
	}
	return fmt.Sprintf("PartitionerKind(%d)", int(k))
}

// Config parameterizes the flow: the target board and estimator library,
// the partitioner and its search settings (Formulation, MaxPartitions;
// zero values give the paper's tool), and the fission and memory layout
// choices. Build is a batch run: its solve has no deadline and cannot be
// cancelled.
type Config struct {
	Board       arch.Board
	Library     *hls.Library
	Constraints hls.Constraints
	Partitioner PartitionerKind
	// Strategy is the loop fission sequencing strategy.
	Strategy fission.Strategy
	// Pow2Blocks selects the power-of-two memory block layout of Sec. 3.
	Pow2Blocks bool
	// Formulation selects the ILP model: tempart.FormulationRows pins the
	// row model, tempart.FormulationPatterns branch-and-price over
	// partition-pattern columns, and "" races the two per relax-N probe.
	Formulation string
	// MaxPartitions caps the relax-N loop (0 keeps tempart's default
	// lower-bound+8 window; instances whose area floor sits far below the
	// packing need must widen it).
	MaxPartitions int
}

// DefaultConfig returns the paper's case-study configuration.
func DefaultConfig() Config {
	return Config{
		Board:   arch.PaperXC4044Board(),
		Library: hls.XC4000Library(),
	}
}

// Design is a fully processed RTR design.
type Design struct {
	Graph        *dfg.Graph
	Config       Config
	Partitioning *tempart.Partitioning
	Fission      *fission.Analysis
	// Synthesized holds per-partition synthesis results when the task
	// graph carries behavioral payloads (nil entries otherwise).
	Synthesized []*hls.PartitionDesign
	// Timings drive the simulator (derived from synthesis when available,
	// otherwise from the task-level delay estimates).
	Timings []sim.PartitionTiming
	// Layouts are the per-partition memory block layouts.
	Layouts []*memmap.Layout
	// Sequencer is the generated host software loop.
	Sequencer string
}

// ErrNilGraph is returned when Build is called without a graph.
var ErrNilGraph = errors.New("core: nil task graph")

// Build runs the flow: partition, fission analysis, synthesis, layout, and
// sequencer generation.
func Build(g *dfg.Graph, cfg Config) (*Design, error) {
	if g == nil {
		return nil, ErrNilGraph
	}
	if cfg.Library == nil {
		cfg.Library = hls.XC4000Library()
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Board.Validate(); err != nil {
		return nil, err
	}

	var part *tempart.Partitioning
	var err error
	switch cfg.Partitioner {
	case ILPPartitioner:
		part, err = tempart.Solve(context.Background(), tempart.Input{
			Graph: g, Board: cfg.Board, Formulation: cfg.Formulation,
			MaxPartitions: cfg.MaxPartitions,
		})
	case ListPartitioner:
		part, err = tempart.ListPartition(g, cfg.Board)
	default:
		return nil, fmt.Errorf("core: unknown partitioner %v", cfg.Partitioner)
	}
	if err != nil {
		return nil, fmt.Errorf("core: partitioning: %w", err)
	}

	d := &Design{Graph: g, Config: cfg, Partitioning: part}
	if part.N == 0 {
		return d, nil
	}

	d.Fission, err = fission.Analyze(g, part.Assign, part.N, cfg.Board.Memory.Words)
	if err != nil {
		return nil, fmt.Errorf("core: fission analysis: %w", err)
	}

	// Per-partition synthesis: use behavioral payloads when present.
	d.Synthesized = make([]*hls.PartitionDesign, part.N)
	d.Timings = make([]sim.PartitionTiming, part.N)
	for p := 0; p < part.N; p++ {
		var behaviors []*hls.OpGraph
		for t := 0; t < g.NumTasks(); t++ {
			if part.Assign[t] != p {
				continue
			}
			if og, ok := g.Task(t).Payload.(*hls.OpGraph); ok {
				behaviors = append(behaviors, og)
			}
		}
		if len(behaviors) > 0 && allHaveBehaviors(g, part.Assign, p) {
			pd, err := hls.SynthesizePartition(behaviors, cfg.Library, cfg.Constraints)
			if err != nil {
				return nil, fmt.Errorf("core: synthesizing partition %d: %w", p, err)
			}
			d.Synthesized[p] = pd
			d.Timings[p] = sim.PartitionTiming{BodyCycles: pd.Cycles, ClockNS: pd.ClockNS}
			continue
		}
		// Fallback: task-level delay estimate as a 1 ns-cycle body.
		cycles := int(part.Delays[p])
		if cycles < 1 {
			cycles = 1
		}
		d.Timings[p] = sim.PartitionTiming{BodyCycles: cycles, ClockNS: 1}
	}

	// Memory block layout per partition: one input and one output segment
	// per computation (Fig. 6 groups all of a partition's data flows).
	d.Layouts = make([]*memmap.Layout, part.N)
	for p := 0; p < part.N; p++ {
		var segs []memmap.Segment
		if d.Fission.In[p] > 0 {
			segs = append(segs, memmap.Segment{Name: fmt.Sprintf("P%d_in", p), Words: d.Fission.In[p]})
		}
		if d.Fission.Out[p] > 0 {
			segs = append(segs, memmap.Segment{Name: fmt.Sprintf("P%d_out", p), Words: d.Fission.Out[p]})
		}
		if len(segs) == 0 {
			continue
		}
		l, err := memmap.NewLayout(segs)
		if err != nil {
			return nil, fmt.Errorf("core: layout for partition %d: %w", p, err)
		}
		d.Layouts[p] = l
	}

	d.Sequencer = fission.SequencerCode(cfg.Strategy, part.N)
	return d, nil
}

func allHaveBehaviors(g *dfg.Graph, assign []int, p int) bool {
	for t := 0; t < g.NumTasks(); t++ {
		if assign[t] != p {
			continue
		}
		if _, ok := g.Task(t).Payload.(*hls.OpGraph); !ok {
			return false
		}
	}
	return true
}

// PartitionCLBs returns each partition's summed task resource usage (used
// by partial-reconfiguration boards to scale configuration loads).
func (d *Design) PartitionCLBs() []int {
	if d.Partitioning == nil || d.Partitioning.N == 0 {
		return nil
	}
	clbs := make([]int, d.Partitioning.N)
	for t := 0; t < d.Graph.NumTasks(); t++ {
		clbs[d.Partitioning.Assign[t]] += d.Graph.Task(t).Resources
	}
	return clbs
}

// Simulate executes I computations of the design on the configured board.
func (d *Design) Simulate(iTotal int, opt sim.Options) (*sim.Result, error) {
	if d.Partitioning == nil || d.Partitioning.N == 0 {
		return nil, errors.New("core: design has no partitions to simulate")
	}
	opt.Pow2Blocks = d.Config.Pow2Blocks
	return sim.SimulateRTR(sim.RTRDesign{
		Partitions:    d.Timings,
		Analysis:      d.Fission,
		PartitionCLBs: d.PartitionCLBs(),
	}, d.Config.Board, d.Config.Strategy, iTotal, opt)
}

// Netlists generates RTL for every synthesized partition (nil entries for
// partitions without behavioral payloads).
func (d *Design) Netlists() ([]*rtl.Netlist, error) {
	out := make([]*rtl.Netlist, len(d.Synthesized))
	for p, pd := range d.Synthesized {
		if pd == nil {
			continue
		}
		n, err := rtl.FromPartition(fmt.Sprintf("%s_p%d", d.Graph.Name, p), pd, d.Config.Library, true)
		if err != nil {
			return nil, err
		}
		if err := n.Check(); err != nil {
			return nil, err
		}
		out[p] = n
	}
	return out, nil
}

// Report renders a human-readable design summary.
func (d *Design) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "design %q on %s (%d CLBs, %d-word memory, CT=%.1f ms)\n",
		d.Graph.Name, d.Config.Board.Name, d.Config.Board.FPGA.CLBs,
		d.Config.Board.Memory.Words, d.Config.Board.FPGA.ReconfigTime/arch.Millisecond)
	p := d.Partitioning
	if p == nil || p.N == 0 {
		b.WriteString("  empty design\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  partitioner: %s (optimal=%v), N=%d, latency=%.0f ns\n",
		d.Config.Partitioner, p.Optimal, p.N, p.Latency)
	for i := 0; i < p.N; i++ {
		var names []string
		res := 0
		for t := 0; t < d.Graph.NumTasks(); t++ {
			if p.Assign[t] == i {
				names = append(names, d.Graph.Task(t).Name)
				res += d.Graph.Task(t).Resources
			}
		}
		fmt.Fprintf(&b, "  partition %d: %d tasks, %d CLBs, d_p=%.0f ns", i+1, len(names), res, p.Delays[i])
		if d.Fission != nil {
			fmt.Fprintf(&b, ", m_temp=%d words", d.Fission.MTemp[i])
		}
		if d.Timings != nil {
			fmt.Fprintf(&b, ", %d cycles @ %.0f ns", d.Timings[i].BodyCycles, d.Timings[i].ClockNS)
		}
		b.WriteByte('\n')
		if len(names) <= 8 {
			fmt.Fprintf(&b, "    tasks: %s\n", strings.Join(names, " "))
		}
	}
	if d.Fission != nil {
		fmt.Fprintf(&b, "  loop fission: k=%d (pow2: k=%d, block=%d words, wastage=%d), strategy=%s\n",
			d.Fission.K, d.Fission.KPow2, d.Fission.BlockWords,
			d.Fission.WastagePerBlock, d.Config.Strategy)
	}
	return b.String()
}

// CaseStudy is the paper's DCT case study (Sec. 4) on one board: the
// temporally partitioned RTR design and the single-configuration static
// design it is measured against.
type CaseStudy struct {
	Design *Design
	Static sim.StaticDesign
	RTR    sim.RTRDesign
}

// DCTCaseStudy partitions the 4x4 DCT task graph on board with the paper's
// tool and synthesizes the static design. The static design moves each
// block's 16 input and 16 output words over the host link in batches of as
// many blocks as the RTR design's largest partition buffers per run
// (Memory.Words / max m_temp), so both designs see the same batching.
func DCTCaseStudy(board arch.Board) (*CaseStudy, error) {
	g, err := jpeg.BuildDCTGraph(hls.XC4000Library(), hls.Constraints{})
	if err != nil {
		return nil, err
	}
	cfg := DefaultConfig()
	cfg.Board = board
	d, err := Build(g, cfg)
	if err != nil {
		return nil, err
	}
	st, err := hls.SynthesizeStatic(jpeg.StaticDCTBehaviors(), jpeg.StaticAllocation(),
		cfg.Library, cfg.Constraints)
	if err != nil {
		return nil, err
	}
	return &CaseStudy{
		Design: d,
		Static: sim.StaticDesign{
			BodyCycles: st.Cycles, ClockNS: st.ClockNS,
			InWords: 16, OutWords: 16,
			BatchK: board.Memory.Words / d.Fission.MaxMTemp,
		},
		RTR: sim.RTRDesign{Partitions: d.Timings, Analysis: d.Fission},
	}, nil
}
