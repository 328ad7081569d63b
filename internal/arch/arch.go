// Package arch describes the Run-Time Reconfigured (RTR) system
// architecture of the paper's Fig. 1: a single FPGA attached to an external
// on-board memory, with a host that loads configurations and moves data
// over a bus.
//
// All durations are modelled in nanoseconds (float64) so that analytic
// formulas and the event simulator in internal/sim share units.
package arch

import (
	"errors"
	"fmt"
)

// FPGA describes the reconfigurable device.
type FPGA struct {
	// Name labels the device (e.g. "XC4044").
	Name string
	// CLBs is R_max: the resource capacity in configurable logic blocks.
	CLBs int
	// ReconfigTime is CT: the full-device reconfiguration time in ns.
	ReconfigTime float64
	// MaxClock is the fastest clock the board supports, expressed as the
	// minimum clock period in ns (user constraint for the HLS engine).
	MinClockNS float64
	// ExtraCapacity caps additional resource types (e.g. "FF", "BRAM").
	// Task demands on types missing here are unconstrained, matching the
	// paper's treatment of CLBs as the binding resource.
	ExtraCapacity map[string]int
	// PartialReconfig models XC6200-class devices where configuration
	// time scales with the reconfigured area: loading a partition that
	// uses u CLBs takes ReconfigTime * u / CLBs instead of the full
	// ReconfigTime.
	PartialReconfig bool
}

// Memory describes the on-board memory bank.
type Memory struct {
	// Words is M_max: capacity in words.
	Words int
	// WordBits is the word width in bits.
	WordBits int
	// AccessNS is the time for one on-board memory access by the FPGA
	// datapath, in ns (usually folded into the design clock).
	AccessNS float64
}

// HostLink describes the host <-> board connection (the paper's PCI bus).
type HostLink struct {
	// Name labels the link (e.g. "PCI-33").
	Name string
	// WordTransferNS is D_sv: the delay to communicate one memory word
	// between host and board memory, in ns, including the handshake
	// amortized per word.
	WordTransferNS float64
	// StartSignalNS is the latency for the host's start signal to reach
	// the FPGA controller.
	StartSignalNS float64
	// FinishSignalNS is the latency for the controller's finish signal to
	// reach the host.
	FinishSignalNS float64
	// ConfigLoadNS is the host-side overhead to initiate a configuration
	// load (added to the FPGA's own ReconfigTime).
	ConfigLoadNS float64
}

// Board bundles the full RTR system architecture.
type Board struct {
	Name   string
	FPGA   FPGA
	Memory Memory
	Link   HostLink
}

// Validate checks the board parameters for sanity.
func (b *Board) Validate() error {
	if b.FPGA.CLBs <= 0 {
		return fmt.Errorf("arch: board %q: FPGA CLBs must be positive", b.Name)
	}
	if b.FPGA.ReconfigTime < 0 {
		return fmt.Errorf("arch: board %q: negative reconfiguration time", b.Name)
	}
	if b.Memory.Words <= 0 {
		return fmt.Errorf("arch: board %q: memory size must be positive", b.Name)
	}
	if b.Link.WordTransferNS < 0 {
		return fmt.Errorf("arch: board %q: negative word transfer delay", b.Name)
	}
	return nil
}

// Common time constants in nanoseconds.
const (
	Microsecond = 1e3
	Millisecond = 1e6
	Second      = 1e9
)

// ErrUnknownBoard is returned by BoardByName for unknown presets.
var ErrUnknownBoard = errors.New("arch: unknown board preset")

// PaperXC4044Board returns the board used in the paper's case study:
// a single Xilinx XC4044 (1600 CLBs), one 64K x 32-bit memory bank,
// 100 ms reconfiguration, and a PCI host link at 33 MHz.
//
// D_sv calibration: the paper moves data between host and board memory over
// 33 MHz / 32-bit PCI. One word per bus clock in burst (DMA) mode is ~30 ns
// per word; the simple handshaking protocol is amortized across a burst. We
// use D_sv = 30 ns/word. jpegbench -dsv reruns Tables 1/2 at another value;
// cmd/jpegbench/testdata/paper-timings-plan-dsv60.golden pins the run at
// 60 ns/word with the paper's cycle counts (IDH improvement 25.7% at
// 245,760 blocks).
func PaperXC4044Board() Board {
	return Board{
		Name: "XC4044-PCI",
		FPGA: FPGA{
			Name:         "XC4044",
			CLBs:         1600,
			ReconfigTime: 100 * Millisecond,
			MinClockNS:   25,
		},
		Memory: Memory{
			Words:    64 * 1024,
			WordBits: 32,
			AccessNS: 25,
		},
		Link: HostLink{
			Name:           "PCI-33",
			WordTransferNS: 30,
			StartSignalNS:  1 * Microsecond,
			FinishSignalNS: 1 * Microsecond,
			ConfigLoadNS:   0,
		},
	}
}

// XC6000Board returns the paper's conjectured low-overhead device: an
// XC6000-series FPGA with a 500 microsecond reconfiguration time, same
// board otherwise.
func XC6000Board() Board {
	b := PaperXC4044Board()
	b.Name = "XC6000-PCI"
	b.FPGA.Name = "XC6200"
	b.FPGA.ReconfigTime = 500 * Microsecond
	return b
}

// XC6000PartialBoard is the XC6000 board with partial reconfiguration
// enabled (the XC6200's headline capability): configuration time scales
// with the partition's CLB usage.
func XC6000PartialBoard() Board {
	b := XC6000Board()
	b.Name = "XC6000-partial"
	b.FPGA.PartialReconfig = true
	return b
}

// TimeMultiplexedBoard models a Trimberger-style time-multiplexed FPGA with
// nanosecond-scale context switches (reference [9] of the paper).
func TimeMultiplexedBoard() Board {
	b := PaperXC4044Board()
	b.Name = "TM-FPGA"
	b.FPGA.Name = "TMFPGA"
	b.FPGA.ReconfigTime = 100 // 100 ns context switch
	return b
}

// WildForceBoard models a WILDFORCE-class commercial board (reference [18])
// with tens-of-milliseconds reconfiguration.
func WildForceBoard() Board {
	b := PaperXC4044Board()
	b.Name = "WildForce"
	b.FPGA.Name = "XC4036"
	b.FPGA.CLBs = 1296
	b.FPGA.ReconfigTime = 50 * Millisecond
	return b
}

// SmallTestBoard returns a tiny board useful in unit tests and examples:
// 100 CLBs, 1K words, 1 ms reconfiguration.
func SmallTestBoard() Board {
	return Board{
		Name: "small-test",
		FPGA: FPGA{Name: "toy", CLBs: 100, ReconfigTime: 1 * Millisecond, MinClockNS: 10},
		Memory: Memory{
			Words: 1024, WordBits: 32, AccessNS: 10,
		},
		Link: HostLink{
			Name: "test-link", WordTransferNS: 100,
			StartSignalNS: 100, FinishSignalNS: 100,
		},
	}
}

// BoardByName resolves a preset board by name.
func BoardByName(name string) (Board, error) {
	switch name {
	case "xc4044", "XC4044", "XC4044-PCI", "paper":
		return PaperXC4044Board(), nil
	case "xc6000", "XC6000", "XC6000-PCI":
		return XC6000Board(), nil
	case "tmfpga", "TM-FPGA":
		return TimeMultiplexedBoard(), nil
	case "wildforce", "WildForce":
		return WildForceBoard(), nil
	case "small", "small-test":
		return SmallTestBoard(), nil
	}
	return Board{}, fmt.Errorf("%w: %q", ErrUnknownBoard, name)
}

// Presets lists the available preset names.
func Presets() []string {
	return []string{"XC4044-PCI", "XC6000-PCI", "TM-FPGA", "WildForce", "small-test"}
}
