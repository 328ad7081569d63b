// Command sweep generalizes the paper's XC6000 conjecture: it sweeps the
// reconfiguration time CT and the host-link word transfer delay D_sv and
// reports the IDH-over-static improvement for the DCT case study, plus the
// image size at which the RTR design starts winning (the crossover).
//
// Output is CSV: ct_ms, dsv_ns, improvement_pct_at_245760, crossover_blocks.
//
//	go run ./cmd/sweep > sweep.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/fission"
	"repro/internal/sim"
)

func main() {
	var (
		iMax     = flag.Int("I", 245760, "computation count for the improvement column")
		strategy = flag.String("strategy", "idh", "sequencing strategy: fdh or idh")
	)
	flag.Parse()
	if err := run(os.Stdout, *iMax, *strategy); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

var ctsMS = []float64{0.1, 0.5, 1, 5, 10, 50, 100, 500}
var dsvsNS = []float64{0, 30, 60, 120, 240}

func run(w io.Writer, iMax int, stratArg string) error {
	var strategy fission.Strategy
	switch stratArg {
	case "fdh":
		strategy = fission.FDH
	case "idh":
		strategy = fission.IDH
	default:
		return fmt.Errorf("unknown strategy %q", stratArg)
	}

	// Both designs come from the paper's board. The sweep varies only CT
	// and D_sv, which leave the memory, and so the static batching, as is.
	cs, err := core.DCTCaseStudy(arch.PaperXC4044Board())
	if err != nil {
		return err
	}
	static, rtr := cs.Static, cs.RTR

	fmt.Fprintln(w, "ct_ms,dsv_ns,improvement_pct,crossover_blocks")
	for _, ctMS := range ctsMS {
		for _, dsv := range dsvsNS {
			board := arch.PaperXC4044Board()
			board.FPGA.ReconfigTime = ctMS * arch.Millisecond
			board.Link.WordTransferNS = dsv
			sRes, err := sim.SimulateStatic(static, board, iMax, sim.Options{TraceCap: -1})
			if err != nil {
				return err
			}
			rRes, err := sim.SimulateRTR(rtr, board, strategy, iMax, sim.Options{TraceCap: -1})
			if err != nil {
				return err
			}
			imp := 100 * sim.Improvement(sRes.TotalNS, rRes.TotalNS)
			cross := crossover(rtr, static, board, strategy, iMax)
			fmt.Fprintf(w, "%g,%g,%.1f,%s\n", ctMS, dsv, imp, cross)
		}
	}
	return nil
}

// crossover binary-searches the smallest block count at which the RTR
// design beats the static design; "-" when it never does within iMax.
func crossover(rtr sim.RTRDesign, static sim.StaticDesign, board arch.Board,
	strategy fission.Strategy, iMax int) string {

	wins := func(i int) bool {
		s, err := sim.SimulateStatic(static, board, i, sim.Options{TraceCap: -1})
		if err != nil {
			return false
		}
		r, err := sim.SimulateRTR(rtr, board, strategy, i, sim.Options{TraceCap: -1})
		if err != nil {
			return false
		}
		return r.TotalNS < s.TotalNS
	}
	if !wins(iMax) {
		return "-"
	}
	lo, hi := 1, iMax
	for lo < hi {
		mid := (lo + hi) / 2
		if wins(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return fmt.Sprintf("%d", lo)
}
