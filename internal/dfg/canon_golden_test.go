package dfg_test

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/dfg"
	"repro/internal/hls"
	"repro/internal/jpeg"
)

// canonGolden pins the canonical hash and order of the DCT task graph and
// of every committed portfolio fixture. The hash is the structure half of
// every sparcsd cache key, so a drift in the refinement silently empties
// a warm cache and splits its entries; the order decides which cached
// assignment a hit transfers to which task.
var canonGolden = map[string]struct {
	hash  string
	order []int
}{
	"dct": {"3f6dfc673c63f958fc2acd54d38af59c5422dab69d5b00b3b9aaf4a379820565",
		[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18,
			19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31}},
	"chain10.json": {"c6124996511401c7e75c35d1bc9fcfc3d47090c8da5798d8aff87a0f515c441e",
		[]int{0, 6, 3, 9, 4, 7, 1, 2, 5, 8}},
	"chain11.json": {"ac9fee0fc3278cd888e1acd6a59e5d52f59f38917aa4bc172f9b76610196d407",
		[]int{6, 9, 3, 0, 10, 1, 7, 4, 2, 8, 5}},
	"chain9.json": {"5eb0830537874b8418471ebc0bc057f649a947200e66becb485f59b3c8cd1270",
		[]int{6, 3, 0, 1, 4, 7, 8, 5, 2}},
	"chainblocks102.json": {"d4798859bc78c74d01ab84465e7112c1434243e53bcb2e7b62395267b63d5903",
		[]int{3, 9, 15, 21, 27, 33, 39, 45, 51, 57, 63, 69, 75, 81, 87, 93, 96,
			99, 0, 6, 12, 18, 24, 30, 36, 42, 48, 54, 60, 66, 72, 78, 84, 90,
			4, 10, 16, 22, 28, 34, 40, 46, 52, 58, 64, 70, 76, 82, 88, 94, 97,
			100, 1, 7, 13, 19, 25, 31, 37, 43, 49, 55, 61, 67, 73, 79, 85, 91,
			2, 8, 14, 20, 26, 32, 38, 44, 50, 56, 62, 68, 74, 80, 86, 92, 5,
			11, 17, 23, 29, 35, 41, 47, 53, 59, 65, 71, 77, 83, 89, 95, 98,
			101}},
	"fir6.json": {"8ee6064cd4e6934a46824711ea4b48c3cae90e223b2cf9be00b9da0b5863a7ec",
		[]int{0, 3, 6, 9, 12, 15, 1, 4, 7, 10, 13, 16, 2, 5, 8, 11, 14, 17}},
	"fir8.json": {"82704b481cec247b9dc4a0f6a279e2977e0d2724c434b5f13307458d8cdbdf8b",
		[]int{0, 3, 6, 9, 12, 15, 18, 21, 1, 4, 7, 10, 13, 16, 19, 22, 2, 5, 8,
			11, 14, 17, 20, 23}},
	"pack12.json": {"a4b0ef0df07947e39f709c79d57a16f9d17a364fc5ed86088d138a9d67547e98",
		[]int{2, 3, 7, 9, 0, 4, 10, 1, 5, 6, 8, 11}},
	"pack15.json": {"f91d2a99890a7362742c0f0ac4b16ee9b3d3fbdb3f80b98349f09a9824aafa9a",
		[]int{2, 9, 10, 11, 13, 14, 5, 6, 7, 8, 0, 1, 3, 4, 12}},
	"pack18.json": {"de14ea6c614f6ee8b7931bef814a8ed9b08633db6f0ff89c6e6046c5e5770f62",
		[]int{1, 4, 5, 6, 8, 9, 10, 13, 15, 17, 0, 11, 12, 16, 2, 3, 7, 14}},
	"pack2638.json": {"9d15e6e5d2bfc1d372ebcd6dd2339f2fd761d9f987bf2631d4f5a7b5bb45cfd2",
		[]int{0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 1, 3, 5, 7, 9, 11, 13,
			15, 17, 19, 21, 23}},
}

// TestCanonicalGolden checks the DCT and every fixture in the portfolio
// directory, so a new fixture fails until it is pinned too.
func TestCanonicalGolden(t *testing.T) {
	dir := filepath.Join("..", "tempart", "testdata", "portfolio")
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"dct"}
	for _, f := range files {
		if name := filepath.Base(f); name != "manifest.json" {
			names = append(names, name)
		}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			want, ok := canonGolden[name]
			if !ok {
				t.Fatal("no golden hash and order pinned")
			}
			var g *dfg.Graph
			var err error
			if name == "dct" {
				g, err = jpeg.BuildDCTGraph(hls.XC4000Library(), hls.Constraints{})
			} else {
				var data []byte
				if data, err = os.ReadFile(filepath.Join(dir, name)); err == nil {
					g, err = dfg.Decode(data)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			hash, order := g.Canonical()
			if hash != want.hash {
				t.Errorf("hash = %s, want %s", hash, want.hash)
			}
			if !slices.Equal(order, want.order) {
				t.Errorf("order = %v, want %v", order, want.order)
			}
		})
	}
}
