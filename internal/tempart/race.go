package tempart

import (
	"context"
	"runtime"

	"repro/internal/ilp"
	"repro/internal/obs"
)

// raceVerdict is one attempt's answer to a relax-N probe.
type raceVerdict struct {
	part     *Partitioning
	err      error
	panicked any // a recovered rival panic, re-raised on the solving goroutine
}

// decisive reports whether the verdict settles the probe: a proven optimum
// with a trusted bound, or a trusted infeasibility proof (solveForN's
// (nil, nil); an untrusted one is an error). Deadline incumbents, limits
// and errors are not.
func (v raceVerdict) decisive() bool {
	return v.err == nil && v.panicked == nil && (v.part == nil || v.part.Optimal && v.part.BoundTrusted)
}

// raceForN runs one relax-N probe of a default-formulation solve as a race
// between the two models. The row search runs as a pinned "rows" probe
// would. When its root's first LP leaves the probe open (ilp.Options.
// RootOpen), the pattern master starts as a rival for the same N, and the
// first decisive verdict wins: it cancels the shared race context, which
// stops the loser, and the loser is joined before the probe returns. A
// non-decisive first finisher waits for the other attempt, and when
// neither is decisive the row verdict stands: exactly the pinned rows
// answer. Probes the rows root closes (the DCT, FIR and packing probes)
// never start a rival and pay only the race context. The first rival of a
// solve builds the pattern tree (patternsApplicable) on its own goroutine;
// when the tree does not fit, that rival's verdict is not decisive, and
// solveForN starts no rival on later probes.
func raceForN(ctx context.Context, in Input, pre *presolve, N int, tally *proofTally) (*Partitioning, error) {
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	// The row search keeps its proof telemetry apart: it counts only if
	// the row verdict stands.
	rowsTally := &proofTally{packNeed: tally.packNeed}
	var rival chan raceVerdict
	startRival := func() {
		rival = make(chan raceVerdict, 1)
		in.Trace.Counter(obs.CounterRaceRivals, 1)
		go func() {
			// The rival gets its own probe span, enclosing its model-build
			// and search spans, so a trace shows when it started.
			span := in.Trace.BeginArg(obs.PhaseProbe, int64(N))
			var v raceVerdict
			defer func() {
				if p := recover(); p != nil {
					v = raceVerdict{panicked: p}
				}
				span.End()
				if v.decisive() {
					cancel()
				}
				rival <- v
			}()
			if in.testRival != nil {
				in.testRival(raceCtx)
			}
			if !patternsApplicable(raceCtx, in, pre, true) {
				v.err = errNoPatternTree
				return
			}
			v.part, v.err = solveForNPatterns(raceCtx, in, pre, N)
		}()
		// Without the yield the rival waits in this P's runnext slot, and
		// with every P busy it sits out a whole preemption time slice.
		runtime.Gosched()
	}
	var rows raceVerdict
	rows.part, rows.err = solveForNRows(ctx, in, pre, N, rowsTally,
		ilp.Options{Context: raceCtx, RootOpen: startRival})
	if rival == nil {
		tally.absorb(rowsTally)
		return rows.part, rows.err
	}
	tally.rivals++
	if rows.decisive() {
		cancel()
	}
	v := <-rival
	if v.panicked != nil {
		panic(v.panicked)
	}
	if !rows.decisive() && v.decisive() {
		in.Trace.Counter(obs.CounterRaceRivalWins, 1)
		return v.part, v.err
	}
	tally.absorb(rowsTally)
	return rows.part, rows.err
}
