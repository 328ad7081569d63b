// jpegflow is the paper's full case study as a runnable program: a JPEG
// hardware/software co-design where the 4x4-block DCT runs on the simulated
// reconfigurable board (temporally partitioned and loop-fissioned) and
// quantization, zig-zag and Huffman coding run as host software.
//
// The program compresses a synthesized image end to end (producing a real,
// decodable bitstream), then reports the DCT timing of the static design
// versus the RTR design under both sequencing strategies.
//
// Run with:
//
//	go run ./examples/jpegflow
package main

import (
	"fmt"
	"log"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/fission"
	"repro/internal/jpeg"
	"repro/internal/sim"
)

func main() {
	// --- Software pipeline: compress a real image. ---
	im := jpeg.Synthesize(jpeg.Photo, 512, 384, 2026)
	res, err := jpeg.Compress(im, 50)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compressed %dx%d image: %d blocks, %.2f bits/pixel, PSNR %.1f dB\n",
		im.W, im.H, res.Blocks, res.BitsPerPix, res.PSNRdB)

	// --- Hardware flow: the partitioned DCT and its static counterpart. ---
	board := arch.PaperXC4044Board()
	cs, err := core.DCTCaseStudy(board)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(cs.Design.Report())
	fmt.Printf("\nstatic design: %d cycles @ %.0f ns per 4x4 block (paper: 160 @ 100 ns)\n",
		cs.Static.BodyCycles, cs.Static.ClockNS)

	// --- Compare on this image's block count. ---
	I := res.Blocks
	stRes, err := sim.SimulateStatic(cs.Static, board, I, sim.Options{TraceCap: -1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDCT timing for the %d blocks of this image:\n", I)
	fmt.Printf("  static: %10.3f ms\n", stRes.TotalNS/arch.Millisecond)
	for _, strategy := range []fission.Strategy{fission.FDH, fission.IDH} {
		r, err := sim.SimulateRTR(cs.RTR, board, strategy, I, sim.Options{TraceCap: -1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  RTR %s: %9.3f ms (improvement %+.1f%%)\n",
			strategy, r.TotalNS/arch.Millisecond,
			100*sim.Improvement(stRes.TotalNS, r.TotalNS))
	}
	fmt.Println("\n(small images lose to the 3 x 100 ms reconfiguration cost; run the")
	fmt.Println(" paper-scale comparison with: go run ./cmd/jpegbench)")
}
