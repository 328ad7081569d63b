// Command jpegbench regenerates the paper's evaluation (Sec. 4): the DCT
// execution times of the static co-design versus the run-time reconfigured
// co-design under the FDH strategy (Table 1) and the IDH strategy
// (Table 2), the break-even analysis, and the XC6000 conjecture.
//
// Columns mirror the paper's tables: image size (4x4 DCT blocks), the
// software loop count I_sw, and total DCT time for the static and RTR
// designs. The paper does not preserve row file names; sizes descend to the
// paper's explicitly reported largest image (245,760 blocks).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/fission"
	"repro/internal/sim"
)

func main() {
	var (
		dsv      = flag.Float64("dsv", 0, "override D_sv (ns/word); 0 keeps the board default")
		paperT   = flag.Bool("paper-timings", false, "use the paper's reported cycle counts (68/36/36 @ 50/70/70, static 160 @ 100) instead of our synthesized ones")
		showPlan = flag.Bool("plan", false, "print the design report and sequencers before the tables")
	)
	flag.Parse()
	if err := run(os.Stdout, *dsv, *paperT, *showPlan); err != nil {
		fmt.Fprintln(os.Stderr, "jpegbench:", err)
		os.Exit(1)
	}
}

// Sizes descend like the paper's tables; the largest is the paper's
// explicit 245,760-block image (the "XV file").
var sizes = []int{245760, 122880, 61440, 30720, 15360, 7680, 3840}

func run(w io.Writer, dsvOverride float64, paperTimings, showPlan bool) error {
	board := arch.PaperXC4044Board()
	if dsvOverride > 0 {
		board.Link.WordTransferNS = dsvOverride
	}

	cs, err := core.DCTCaseStudy(board)
	if err != nil {
		return err
	}
	d, static, rtr := cs.Design, cs.Static, cs.RTR
	if paperTimings {
		rtr.Partitions = []sim.PartitionTiming{
			{BodyCycles: 68, ClockNS: 50},
			{BodyCycles: 36, ClockNS: 70},
			{BodyCycles: 36, ClockNS: 70},
		}
		static.BodyCycles = 160
		static.ClockNS = 100
	}

	if showPlan {
		fmt.Fprint(w, d.Report())
		fmt.Fprintln(w)
		fmt.Fprint(w, fission.SequencerCode(fission.FDH, d.Fission.N))
		fmt.Fprintln(w)
		fmt.Fprint(w, fission.SequencerCode(fission.IDH, d.Fission.N))
		fmt.Fprintln(w)
	}

	perBlockStatic := (float64(static.BodyCycles) + 1) * static.ClockNS
	perBlockRTR := 0.0
	for _, p := range rtr.Partitions {
		perBlockRTR += p.PerComputationNS()
	}
	fmt.Fprintf(w, "per 4x4 block: static %.0f ns, RTR %.0f ns (paper: 16000 vs 8440)\n",
		perBlockStatic, perBlockRTR)
	fmt.Fprintf(w, "k = %d computations per run (paper: 2048); D_sv = %.0f ns/word\n\n",
		d.Fission.K, board.Link.WordTransferNS)

	fmt.Fprintln(w, "Table 1: DCT execution time, FDH strategy")
	table(w, rtr, static, board, fission.FDH)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Table 2: DCT execution time, IDH strategy")
	table(w, rtr, static, board, fission.IDH)

	be := fission.BreakEvenComputations(board, d.Fission.N, perBlockStatic, perBlockRTR)
	fmt.Fprintf(w, "\nbreak-even: %.0f blocks per batch (paper reports 42,553)\n", be)

	b6 := arch.XC6000Board()
	if dsvOverride > 0 {
		b6.Link.WordTransferNS = dsvOverride
	}
	s6, err := sim.SimulateStatic(static, b6, sizes[0], sim.Options{TraceCap: -1})
	if err != nil {
		return err
	}
	r6, err := sim.SimulateRTR(rtr, b6, fission.IDH, sizes[0], sim.Options{TraceCap: -1})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "XC6000 conjecture (CT=500 us): IDH improvement at %d blocks = %.1f%% (paper conjectures 47%%)\n",
		sizes[0], 100*sim.Improvement(s6.TotalNS, r6.TotalNS))
	return nil
}

func table(w io.Writer, rtr sim.RTRDesign, static sim.StaticDesign, board arch.Board, strategy fission.Strategy) {
	fmt.Fprintf(w, "  %-8s %6s %12s %12s %12s\n", "blocks", "I_sw", "static (s)", "RTR (s)", "improvement")
	fmt.Fprintln(w, "  "+strings.Repeat("-", 56))
	k := rtr.Analysis.K
	for _, I := range sizes {
		s, err := sim.SimulateStatic(static, board, I, sim.Options{TraceCap: -1})
		if err != nil {
			fmt.Fprintln(w, "  error:", err)
			return
		}
		r, err := sim.SimulateRTR(rtr, board, strategy, I, sim.Options{TraceCap: -1})
		if err != nil {
			fmt.Fprintln(w, "  error:", err)
			return
		}
		isw := (I + k - 1) / k
		fmt.Fprintf(w, "  %-8d %6d %12.3f %12.3f %11.1f%%\n",
			I, isw, s.TotalNS/arch.Second, r.TotalNS/arch.Second,
			100*sim.Improvement(s.TotalNS, r.TotalNS))
	}
}
