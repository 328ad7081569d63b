// Command sparcs runs the full temporal partitioning and loop fission flow
// on a task graph: read a graph (JSON from cmd/tgen or hand-written, or the
// built-in DCT case study), partition it for a target board, analyze loop
// fission, and simulate the resulting RTR design.
//
// Usage:
//
//	sparcs -graph dct -I 245760 -strategy idh
//	sparcs -graph mygraph.json -board xc6000 -partitioner list -I 10000
//	sparcs -graph dct -verilog    # dump partition RTL
//	sparcs -graph dct -dot        # dump the task graph in Graphviz format
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/fission"
	"repro/internal/hls"
	"repro/internal/jpeg"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/tempart"
)

func main() {
	var (
		graphArg   = flag.String("graph", "dct", "task graph: 'dct' or a JSON file path")
		boardArg   = flag.String("board", "paper", "board preset: "+strings.Join(arch.Presets(), ", "))
		partArg    = flag.String("partitioner", "ilp", "partitioner: ilp or list")
		stratArg   = flag.String("strategy", "idh", "sequencing strategy: fdh or idh")
		iArg       = flag.Int("I", 2048, "total computations (outer loop count)")
		pow2Arg    = flag.Bool("pow2", false, "use power-of-two memory blocks")
		dotArg     = flag.Bool("dot", false, "print the task graph in DOT format and exit")
		verilogArg = flag.Bool("verilog", false, "print partition RTL after the flow")
		seqArg     = flag.Bool("sequencer", false, "print the host sequencer code")
		traceArg   = flag.Int("trace", 0, "print the first N simulation trace events")
		formArg    = flag.String("formulation", "", "ILP model: rows (assignment variables), patterns (branch-and-price), or empty to run rows and hand each partition count its root leaves open to patterns")
		maxPartArg = flag.Int("max-partitions", 0, "cap on the partition count search (0 = the solver's default window)")
		outArg     = flag.String("o", "text", "output format: text, or json (the machine-readable service payload; skips simulation)")
	)
	flag.Parse()

	if err := run(cliOptions{
		Graph: *graphArg, Board: *boardArg, Partitioner: *partArg,
		Strategy: *stratArg, I: *iArg, Pow2: *pow2Arg, DOT: *dotArg,
		Verilog: *verilogArg, Sequencer: *seqArg, Trace: *traceArg,
		Output: *outArg, Formulation: *formArg, MaxPartitions: *maxPartArg,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "sparcs:", err)
		os.Exit(1)
	}
}

// cliOptions bundles the command-line flags so run stays callable (and
// readable) from tests as new flags accumulate.
type cliOptions struct {
	Graph, Board, Partitioner, Strategy string
	I                                   int
	Pow2, DOT, Verilog, Sequencer       bool
	Trace                               int
	// Output selects "text" (the human report + simulation) or "json"
	// (the exact internal/service Result payload, solve only).
	Output string
	// Formulation selects the ilp partitioner's model: "rows" pins the
	// assignment-variable row model, "patterns" branch-and-price over
	// partition-pattern columns, and "" (the service's default too) runs
	// rows and hands each relax-N probe the rows root leaves open off to
	// the pattern master.
	Formulation string
	// MaxPartitions caps the relax-N search (0 = the solver's default
	// window above the combinatorial lower bound).
	MaxPartitions int
}

func run(o cliOptions) error {
	board, err := arch.BoardByName(o.Board)
	if err != nil {
		return err
	}
	g, err := loadGraph(o.Graph)
	if err != nil {
		return err
	}
	if o.DOT {
		fmt.Print(g.DOT())
		return nil
	}

	cfg := core.DefaultConfig()
	cfg.Board = board
	cfg.Pow2Blocks = o.Pow2
	switch o.Formulation {
	case "", tempart.FormulationRows, tempart.FormulationPatterns:
		cfg.Formulation = o.Formulation
	default:
		return fmt.Errorf("unknown formulation %q (want rows, patterns, or empty)", o.Formulation)
	}
	if o.MaxPartitions < 0 {
		return fmt.Errorf("negative -max-partitions %d", o.MaxPartitions)
	}
	cfg.MaxPartitions = o.MaxPartitions
	switch o.Partitioner {
	case "ilp":
		cfg.Partitioner = core.ILPPartitioner
	case "list":
		cfg.Partitioner = core.ListPartitioner
	default:
		return fmt.Errorf("unknown partitioner %q", o.Partitioner)
	}
	switch o.Strategy {
	case "fdh":
		cfg.Strategy = fission.FDH
	case "idh":
		cfg.Strategy = fission.IDH
	default:
		return fmt.Errorf("unknown strategy %q", o.Strategy)
	}

	switch o.Output {
	case "", "text":
	case "json":
	default:
		return fmt.Errorf("unknown output format %q (want text or json)", o.Output)
	}

	d, err := core.Build(g, cfg)
	if err != nil {
		return err
	}
	if o.Output == "json" {
		// Machine-readable mode: emit exactly the payload the sparcsd
		// service returns for this solve, so CLI consumers and HTTP
		// clients parse one schema.
		res := service.NewResult(g, board.Name, cfg.Partitioner.String(), d.Partitioning)
		res.SolveMS = float64(d.Partitioning.Stats.SolveTime.Microseconds()) / 1e3
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	fmt.Print(d.Report())
	if d.Partitioning.N == 0 {
		return nil
	}
	st := d.Partitioning.Stats
	fmt.Printf("  solver: %d B&B nodes, %d LP pivots, build %v, solve %v\n",
		st.Nodes, st.LPIterations, st.BuildTime.Round(1e6), st.SolveTime.Round(1e6))
	if st.CutsAdded > 0 {
		fmt.Printf("  cuts: %d added over %d separation rounds\n", st.CutsAdded, st.SeparationRounds)
	}
	if st.Solver.Solves > 0 {
		fmt.Printf("  simplex: %d warm / %d cold solves, %d dual repair pivots\n",
			st.Solver.WarmSolves, st.Solver.ColdSolves, st.Solver.DualPivots)
	}

	res, err := d.Simulate(o.I, sim.Options{TraceCap: maxInt(o.Trace, 4096)})
	if err != nil {
		return err
	}
	fmt.Printf("\nsimulated %d computations under %s:\n", o.I, cfg.Strategy)
	fmt.Printf("  total    %14.3f ms\n", res.TotalNS/arch.Millisecond)
	fmt.Printf("  compute  %14.3f ms\n", res.ComputeNS/arch.Millisecond)
	fmt.Printf("  reconfig %14.3f ms (%d loads)\n", res.ReconfigNS/arch.Millisecond, res.Reconfigurations)
	fmt.Printf("  transfer %14.3f ms\n", res.TransferNS/arch.Millisecond)
	fmt.Printf("  handshake%14.3f ms\n", res.HandshakeNS/arch.Millisecond)

	if o.Trace > 0 {
		fmt.Println("\ntrace:")
		for i, ev := range res.Trace.Events {
			if i >= o.Trace {
				break
			}
			fmt.Printf("  %12.0f ns  %-9s config=%d batch=%d words=%d iters=%d\n",
				ev.StartNS, ev.Kind, ev.Config, ev.Batch, ev.Words, ev.Iter)
		}
	}
	if o.Sequencer {
		fmt.Println("\nhost sequencer:")
		fmt.Print(d.Sequencer)
	}
	if o.Verilog {
		nl, err := d.Netlists()
		if err != nil {
			return err
		}
		for p, n := range nl {
			if n == nil {
				fmt.Printf("\n// partition %d: no behavioral payload, RTL skipped\n", p+1)
				continue
			}
			fmt.Printf("\n// ----- partition %d -----\n", p+1)
			fmt.Print(n.Verilog())
		}
	}
	return nil
}

func loadGraph(arg string) (*dfg.Graph, error) {
	if arg == "dct" {
		return jpeg.BuildDCTGraph(hls.XC4000Library(), hls.Constraints{})
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		return nil, err
	}
	g, err := dfg.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", arg, err)
	}
	return g, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
