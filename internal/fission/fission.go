// Package fission implements the paper's loop fission analysis (Sec. 2.2):
// given a temporally partitioned task graph whose computation repeats for an
// implicit outer loop of I iterations (known only at run time), it computes
// how many computations k can be batched into each temporal partition under
// the on-board memory limit (Eq. 9), and models the two host sequencing
// strategies:
//
//   - FDH (Final Data to Host): all N partitions run over each batch of k
//     computations before the next batch starts; the device is reconfigured
//     N times per batch, so the reconfiguration overhead is N·CT·I_sw.
//   - IDH (Intermediate Data to Host): each partition runs over all I
//     computations before the next partition is configured, shuttling
//     intermediate data to the host between batches; the reconfiguration
//     overhead drops to N·CT at the price of 2·k·I_sw·D_sv·m_temp extra
//     data movement.
package fission

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/arch"
	"repro/internal/dfg"
)

// Analysis is the per-partition memory accounting and the resulting batch
// size k for one computation of the task graph.
type Analysis struct {
	// N is the number of temporal partitions.
	N int
	// In holds, per partition, the words read per computation (environment
	// inputs staged by the host plus intermediate values produced by
	// earlier partitions).
	In []int
	// Out holds, per partition, the words produced per computation that
	// must be stored (environment outputs plus values consumed by later
	// partitions).
	Out []int
	// EnvIn / EnvOut are the environment-only parts of In / Out: the data
	// that must cross the host link even when intermediates stay on the
	// board (the FDH case).
	EnvIn  []int
	EnvOut []int
	// MTemp is In[i]+Out[i]: the paper's m_temp^i.
	MTemp []int
	// MaxMTemp is max_i MTemp[i], the denominator of Eq. 9.
	MaxMTemp int
	// K is Eq. 9: the computations batched per configuration run,
	// ⌊M_max / MaxMTemp⌋.
	K int
	// BlockWords is MaxMTemp rounded up to a power of two (Sec. 3's
	// simplified address generation).
	BlockWords int
	// KPow2 is the batch size under power-of-two block rounding.
	KPow2 int
	// WastagePerBlock is BlockWords - MaxMTemp (Sec. 3's memory wastage
	// tradeoff).
	WastagePerBlock int
}

// Errors.
var (
	ErrNoPartitions = errors.New("fission: empty partitioning")
	ErrNoMemory     = errors.New("fission: a single computation exceeds the on-board memory")
)

// outWords returns the distinct words task t must store for downstream
// partitions: its output payload counts once even with multiple consumers
// (the paper stores each intermediate value once in the memory block).
func outWords(g *dfg.Graph, t int) int {
	w := 0
	for _, e := range g.Edges() {
		if e.From == t && e.Data > w {
			w = e.Data
		}
	}
	return w
}

// Analyze computes the memory accounting of Sec. 4 for a partitioned graph.
func Analyze(g *dfg.Graph, assign []int, n int, memWords int) (*Analysis, error) {
	if n <= 0 {
		return nil, ErrNoPartitions
	}
	if len(assign) != g.NumTasks() {
		return nil, fmt.Errorf("fission: assignment covers %d of %d tasks", len(assign), g.NumTasks())
	}
	a := &Analysis{
		N:      n,
		In:     make([]int, n),
		Out:    make([]int, n),
		EnvIn:  make([]int, n),
		EnvOut: make([]int, n),
	}
	for t := 0; t < g.NumTasks(); t++ {
		p := assign[t]
		if p < 0 || p >= n {
			return nil, fmt.Errorf("fission: task %d in invalid partition %d", t, p)
		}
		task := g.Task(t)
		a.In[p] += task.ReadEnv
		a.Out[p] += task.WriteEnv
		a.EnvIn[p] += task.ReadEnv
		a.EnvOut[p] += task.WriteEnv

		// Does t feed any later partition? Count its payload once in its
		// own partition's output, and once in each later partition that
		// consumes it.
		consumers := map[int]bool{}
		for _, s := range g.Succs(t) {
			if assign[s] > p {
				consumers[assign[s]] = true
			}
		}
		if len(consumers) > 0 {
			w := outWords(g, t)
			a.Out[p] += w
			for cp := range consumers {
				a.In[cp] += w
			}
		}
	}
	a.MTemp = make([]int, n)
	for i := 0; i < n; i++ {
		a.MTemp[i] = a.In[i] + a.Out[i]
		if a.MTemp[i] > a.MaxMTemp {
			a.MaxMTemp = a.MTemp[i]
		}
	}
	if a.MaxMTemp == 0 {
		// A design with no memory traffic batches arbitrarily; pin k to
		// the memory size as a sane cap.
		a.K = memWords
		a.KPow2 = memWords
		a.BlockWords = 0
		return a, nil
	}
	a.K = memWords / a.MaxMTemp
	if a.K < 1 {
		return nil, fmt.Errorf("%w: m_temp=%d words, memory=%d", ErrNoMemory, a.MaxMTemp, memWords)
	}
	a.BlockWords = NextPow2(a.MaxMTemp)
	a.KPow2 = memWords / a.BlockWords
	a.WastagePerBlock = a.BlockWords - a.MaxMTemp
	return a, nil
}

// NextPow2 returns the smallest power of two >= n (n >= 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Strategy selects a host sequencing strategy.
type Strategy int

const (
	// FDH is Final Data to Host (Fig. 5b).
	FDH Strategy = iota
	// IDH is Intermediate Data to Host (Fig. 5c).
	IDH
)

func (s Strategy) String() string {
	switch s {
	case FDH:
		return "FDH"
	case IDH:
		return "IDH"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Plan is the loop fission execution plan for a given total computation
// count I, with the analytic overhead model of Sec. 2.2.
type Plan struct {
	Strategy Strategy
	Analysis *Analysis
	// I is the total number of computations (the run-time loop count).
	I int
	// K is the batch size actually used (Analysis.K, or KPow2 when
	// power-of-two addressing is chosen).
	K int
	// Isw is the software loop count ⌈I/K⌉ executed on the host.
	Isw int
	// Reconfigurations is the total number of FPGA configuration loads.
	Reconfigurations int
	// ReconfigNS is the total reconfiguration overhead.
	ReconfigNS float64
	// TransferNS is the total host<->board data movement time.
	TransferNS float64
	// TransferWords is the total words moved between host and board.
	TransferWords int
}

// NewPlan builds the execution plan for I computations under a strategy.
// pow2 selects the power-of-two block layout of Sec. 3.
func NewPlan(a *Analysis, board arch.Board, strategy Strategy, iTotal int, pow2 bool) (*Plan, error) {
	if iTotal < 0 {
		return nil, fmt.Errorf("fission: negative computation count %d", iTotal)
	}
	k := a.K
	if pow2 {
		k = a.KPow2
	}
	if k < 1 {
		return nil, ErrNoMemory
	}
	// "If I ... is less than k ... only the first I computations from the
	// output will have to be picked up."
	if iTotal < k && iTotal > 0 {
		k = iTotal
	}
	p := &Plan{Strategy: strategy, Analysis: a, I: iTotal, K: k}
	if iTotal == 0 {
		return p, nil
	}
	p.Isw = (iTotal + k - 1) / k
	ct := board.FPGA.ReconfigTime + board.Link.ConfigLoadNS
	dsv := board.Link.WordTransferNS

	switch strategy {
	case FDH:
		// Every batch reconfigures through all N partitions; only
		// environment inputs and final outputs move between host and
		// board (intermediates stay in on-board memory).
		p.Reconfigurations = a.N * p.Isw
		p.ReconfigNS = float64(p.Reconfigurations) * ct
		words := 0
		for i := 0; i < a.N; i++ {
			words += envIn(a, i) + envOut(a, i)
		}
		p.TransferWords = words * iTotal
		p.TransferNS = float64(p.TransferWords) * dsv
	case IDH:
		// N reconfigurations total; every partition's inputs and outputs
		// cross the host link once per computation.
		p.Reconfigurations = a.N
		p.ReconfigNS = float64(p.Reconfigurations) * ct
		words := 0
		for i := 0; i < a.N; i++ {
			words += a.In[i] + a.Out[i]
		}
		p.TransferWords = words * iTotal
		p.TransferNS = float64(p.TransferWords) * dsv
	default:
		return nil, fmt.Errorf("fission: unknown strategy %d", int(strategy))
	}
	return p, nil
}

// envIn returns the environment-input words of partition i: the data the
// host must stage over the link even when intermediates stay on the board.
func envIn(a *Analysis, i int) int { return a.EnvIn[i] }

func envOut(a *Analysis, i int) int { return a.EnvOut[i] }

// BreakEvenComputations returns the paper's break-even analysis (Sec. 4):
// the number of computations that must be batched into each configuration
// pass so that the reconfiguration overhead N·CT is recovered by the
// per-computation execution gain of the RTR design over the static design.
// Returns +Inf when the RTR design is not faster per computation.
func BreakEvenComputations(board arch.Board, n int, staticPerCompNS, rtrPerCompNS float64) float64 {
	gain := staticPerCompNS - rtrPerCompNS
	if gain <= 0 {
		return math.Inf(1)
	}
	return math.Ceil(float64(n) * (board.FPGA.ReconfigTime + board.Link.ConfigLoadNS) / gain)
}

// SequencerCode generates the host software loop for the plan, matching the
// pseudocode of Sec. 2.2. The loop bound I_sw is emitted symbolically
// because "the actual value of I will be known only at run time".
func SequencerCode(strategy Strategy, n int) string {
	var b strings.Builder
	switch strategy {
	case FDH:
		b.WriteString("// FDH (Final Data to Host) host sequencer\n")
		b.WriteString("for (j = 0; j <= I_sw - 1; j++) {\n")
		b.WriteString("    load_block(j, INPUT, config[0]);\n")
		fmt.Fprintf(&b, "    for (i = 0; i <= %d; i++) {\n", n-1)
		b.WriteString("        load_configuration(i);\n")
		b.WriteString("        send_start_signal();\n")
		b.WriteString("        wait_finish_signal();\n")
		b.WriteString("    }\n")
		fmt.Fprintf(&b, "    read_block(j, OUTPUT, config[%d]);\n", n-1)
		b.WriteString("}\n")
	case IDH:
		b.WriteString("// IDH (Intermediate Data to Host) host sequencer\n")
		fmt.Fprintf(&b, "for (i = 0; i <= %d; i++) {\n", n-1)
		b.WriteString("    load_configuration(i);\n")
		b.WriteString("    for (j = 0; j <= I_sw - 1; j++) {\n")
		b.WriteString("        load_block(j, INTERMEDIATE_INPUT, config[i]);\n")
		b.WriteString("        send_start_signal();\n")
		b.WriteString("        wait_finish_signal();\n")
		b.WriteString("        read_block(j, INTERMEDIATE_OUTPUT, config[i]);\n")
		b.WriteString("    }\n")
		b.WriteString("}\n")
	}
	return b.String()
}
