package tempart

import (
	"context"

	"repro/internal/obs"
)

// handOffForN runs one relax-N probe of a default-formulation solve. The
// row search runs as a pinned "rows" probe would. When its root's first LP
// leaves the probe open (ilp.Options.RootOpen), the probe is handed off to
// the pattern master on the same goroutine, under the solve's context. A
// decisive pattern verdict answers the probe and ends the row search at
// its root: a proven optimum with a trusted bound, or a trusted
// infeasibility proof (solveForN's (nil, nil); an untrusted one is an
// error), but no deadline incumbent, limit or error. Otherwise the row
// search carries on from its root and its verdict stands: exactly the
// pinned rows answer. Probes the rows root closes (the DCT, fir8 and
// packing probes) never reach the pattern master. The first hand-off of a
// solve builds the pattern tree (patternsApplicable); when the tree does
// not fit, no later probe hands off.
func handOffForN(ctx context.Context, in Input, pre *presolve, N int, tally *proofTally) (*Partitioning, error) {
	var (
		part *Partitioning
		err  error
		won  bool
	)
	rootOpen := func() bool {
		if patternsExcluded(in, pre) {
			return false
		}
		tally.rivals++
		in.Trace.Counter(obs.CounterRaceRivals, 1)
		hctx := ctx
		if in.testHandOff != nil {
			hctx = in.testHandOff(ctx)
		}
		if !patternsApplicable(hctx, in, pre, N) {
			return false
		}
		part, err = solveForNPatterns(hctx, in, pre, N)
		won = err == nil && (part == nil || part.Optimal && part.BoundTrusted)
		return won
	}
	rows, rowsErr := solveForNRows(ctx, in, pre, N, tally, rootOpen)
	if won {
		in.Trace.Counter(obs.CounterRaceRivalWins, 1)
		return part, err
	}
	return rows, rowsErr
}
