package jpeg

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
)

// JPEG-style entropy coding for the host software stage: zig-zagged,
// quantized coefficients are run-length coded into (zero-run, size)
// symbols with appended magnitude bits, then Huffman coded with a canonical
// code built from the actual symbol frequencies. The table is serialized in
// the stream header so the output is self-contained and decodable.

// rleSymbol encodes a run of zeros followed by a nonzero value's size
// category, mirroring JPEG AC coefficient coding. DC terms are delta-coded
// with run = 0. EOB (end of block) is symbol {15, 0} reused as a sentinel.
type rleSymbol struct {
	Run  int // zeros preceding the value (0..14)
	Size int // bits in the magnitude (0 for EOB)
}

const (
	maxRun = 14
	eobRun = 15
)

func (s rleSymbol) id() int { return s.Run*32 + s.Size }

func symbolFromID(id int) rleSymbol { return rleSymbol{Run: id / 32, Size: id % 32} }

// sizeCategory returns the number of bits needed for v's magnitude.
func sizeCategory(v int) int {
	if v < 0 {
		v = -v
	}
	n := 0
	for v > 0 {
		n++
		v >>= 1
	}
	return n
}

// BitWriter accumulates a bitstream MSB first.
type BitWriter struct {
	buf  []byte
	nbit uint8
}

// WriteBits appends the low n bits of v, MSB first.
func (w *BitWriter) WriteBits(v uint64, n int) {
	for i := n - 1; i >= 0; i-- {
		bit := byte(v>>uint(i)) & 1
		if w.nbit == 0 {
			w.buf = append(w.buf, 0)
		}
		w.buf[len(w.buf)-1] |= bit << (7 - w.nbit)
		w.nbit = (w.nbit + 1) % 8
	}
}

// Bytes returns the accumulated stream.
func (w *BitWriter) Bytes() []byte { return w.buf }

// Len returns the total number of bits written.
func (w *BitWriter) Len() int {
	if w.nbit == 0 {
		return len(w.buf) * 8
	}
	return (len(w.buf)-1)*8 + int(w.nbit)
}

// BitReader consumes a bitstream produced by BitWriter.
type BitReader struct {
	buf []byte
	pos int // bit position
}

// NewBitReader wraps a byte stream.
func NewBitReader(b []byte) *BitReader { return &BitReader{buf: b} }

// ReadBits reads n bits MSB first.
func (r *BitReader) ReadBits(n int) (uint64, error) {
	var v uint64
	for i := 0; i < n; i++ {
		byteIdx := r.pos / 8
		if byteIdx >= len(r.buf) {
			return 0, errors.New("jpeg: bitstream underrun")
		}
		bit := (r.buf[byteIdx] >> (7 - uint(r.pos%8))) & 1
		v = v<<1 | uint64(bit)
		r.pos++
	}
	return v, nil
}

// huffNode is a Huffman tree node for code construction.
type huffNode struct {
	freq        int
	sym         int // -1 for internal
	left, right *huffNode
	order       int // tie-break for determinism
}

type nodeHeap []*huffNode

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].order < h[j].order
}
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)   { *h = append(*h, x.(*huffNode)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// HuffmanTable is a canonical Huffman code: symbol id -> (code, length).
type HuffmanTable struct {
	Lengths map[int]int
	Codes   map[int]uint64
}

// buildHuffman constructs a canonical Huffman table from frequencies.
func buildHuffman(freq map[int]int) (*HuffmanTable, error) {
	if len(freq) == 0 {
		return nil, errors.New("jpeg: no symbols to code")
	}
	h := &nodeHeap{}
	order := 0
	for sym, f := range freq {
		heap.Push(h, &huffNode{freq: f, sym: sym, order: sym})
		order++
	}
	if h.Len() == 1 {
		// Degenerate single-symbol alphabet: assign a 1-bit code.
		n := (*h)[0]
		return canonical(map[int]int{n.sym: 1})
	}
	next := 1 << 20
	for h.Len() > 1 {
		a := heap.Pop(h).(*huffNode)
		b := heap.Pop(h).(*huffNode)
		heap.Push(h, &huffNode{freq: a.freq + b.freq, sym: -1, left: a, right: b, order: next})
		next++
	}
	root := heap.Pop(h).(*huffNode)
	lengths := map[int]int{}
	var walk func(n *huffNode, depth int)
	walk = func(n *huffNode, depth int) {
		if n.sym >= 0 {
			if depth == 0 {
				depth = 1
			}
			lengths[n.sym] = depth
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(root, 0)
	return canonical(lengths)
}

// canonical assigns canonical codes given code lengths.
func canonical(lengths map[int]int) (*HuffmanTable, error) {
	type sl struct{ sym, len int }
	list := make([]sl, 0, len(lengths))
	maxLen := 0
	for s, l := range lengths {
		if l <= 0 || l > 57 {
			return nil, fmt.Errorf("jpeg: invalid code length %d", l)
		}
		list = append(list, sl{s, l})
		if l > maxLen {
			maxLen = l
		}
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].len != list[j].len {
			return list[i].len < list[j].len
		}
		return list[i].sym < list[j].sym
	})
	codes := map[int]uint64{}
	code := uint64(0)
	prevLen := 0
	for _, e := range list {
		code <<= uint(e.len - prevLen)
		codes[e.sym] = code
		code++
		prevLen = e.len
	}
	if maxLen < 64 && code > 1<<uint(maxLen) {
		return nil, errors.New("jpeg: code length overflow (non-Kraft lengths)")
	}
	return &HuffmanTable{Lengths: lengths, Codes: codes}, nil
}

// decoder is a simple canonical-code decoder (bit-at-a-time table walk).
type decoder struct {
	byCode map[uint64]int // (len<<32 | code) -> sym  (lengths < 58 keep this unambiguous)
	maxLen int
}

func newDecoder(t *HuffmanTable) *decoder {
	d := &decoder{byCode: map[uint64]int{}}
	for sym, code := range t.Codes {
		l := t.Lengths[sym]
		d.byCode[uint64(l)<<58|code] = sym
		if l > d.maxLen {
			d.maxLen = l
		}
	}
	return d
}

func (d *decoder) read(r *BitReader) (int, error) {
	code := uint64(0)
	for l := 1; l <= d.maxLen; l++ {
		b, err := r.ReadBits(1)
		if err != nil {
			return 0, err
		}
		code = code<<1 | b
		if sym, ok := d.byCode[uint64(l)<<58|code]; ok {
			return sym, nil
		}
	}
	return 0, errors.New("jpeg: invalid Huffman code")
}

// EncodeBlocks entropy-codes a sequence of zig-zagged quantized blocks into
// a self-contained bitstream (header with block count and Huffman table,
// then the coded data).
func EncodeBlocks(blocks [][N * N]int) ([]byte, error) {
	syms, extras := symbolize(blocks)
	freq := map[int]int{}
	for _, s := range syms {
		freq[s.id()]++
	}
	table, err := buildHuffman(freq)
	if err != nil {
		return nil, err
	}
	w := &BitWriter{}
	// Header: block count (32b), table size (16b), then (symbol id 16b,
	// length 6b) entries.
	w.WriteBits(uint64(len(blocks)), 32)
	w.WriteBits(uint64(len(table.Lengths)), 16)
	ids := make([]int, 0, len(table.Lengths))
	for id := range table.Lengths {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		w.WriteBits(uint64(id), 16)
		w.WriteBits(uint64(table.Lengths[id]), 6)
	}
	for i, s := range syms {
		w.WriteBits(table.Codes[s.id()], table.Lengths[s.id()])
		if s.Size > 0 {
			w.WriteBits(extras[i].bits, extras[i].n)
		}
	}
	return w.Bytes(), nil
}

type extraBits struct {
	bits uint64
	n    int
}

// symbolize converts blocks into RLE symbols + magnitude bits. The DC term
// of each block is delta-coded against the previous block's DC.
func symbolize(blocks [][N * N]int) ([]rleSymbol, []extraBits) {
	var syms []rleSymbol
	var extras []extraBits
	prevDC := 0
	emit := func(run, v int) {
		size := sizeCategory(v)
		syms = append(syms, rleSymbol{Run: run, Size: size})
		extras = append(extras, magnitude(v, size))
	}
	for _, blk := range blocks {
		emit(0, blk[0]-prevDC)
		prevDC = blk[0]
		run := 0
		for k := 1; k < N*N; k++ {
			v := blk[k]
			if v == 0 {
				run++
				continue
			}
			for run > maxRun {
				syms = append(syms, rleSymbol{Run: maxRun, Size: 0}) // ZRL-style filler
				extras = append(extras, extraBits{})
				run -= maxRun
			}
			emit(run, v)
			run = 0
		}
		// End of block, only when trailing zeros remain (standard JPEG
		// convention): a block whose last AC coefficient is nonzero ends
		// implicitly at k == N*N and the decoder must not expect an EOB.
		if run > 0 {
			syms = append(syms, rleSymbol{Run: eobRun, Size: 0})
			extras = append(extras, extraBits{})
		}
	}
	return syms, extras
}

// magnitude produces JPEG-style magnitude bits: positive values as-is,
// negative values as (v - 1) in size bits (one's-complement style).
func magnitude(v, size int) extraBits {
	if size == 0 {
		return extraBits{}
	}
	if v < 0 {
		v = v - 1
	}
	return extraBits{bits: uint64(v) & ((1 << uint(size)) - 1), n: size}
}

func demagnitude(bits uint64, size int) int {
	if size == 0 {
		return 0
	}
	v := int(bits)
	if v < 1<<uint(size-1) { // sign bit clear -> negative
		v = v - (1 << uint(size)) + 1
	}
	return v
}

// DecodeBlocks inverts EncodeBlocks.
func DecodeBlocks(data []byte) ([][N * N]int, error) {
	r := NewBitReader(data)
	nBlocks64, err := r.ReadBits(32)
	if err != nil {
		return nil, err
	}
	nSyms64, err := r.ReadBits(16)
	if err != nil {
		return nil, err
	}
	lengths := map[int]int{}
	for i := 0; i < int(nSyms64); i++ {
		id, err := r.ReadBits(16)
		if err != nil {
			return nil, err
		}
		l, err := r.ReadBits(6)
		if err != nil {
			return nil, err
		}
		lengths[int(id)] = int(l)
	}
	table, err := canonical(lengths)
	if err != nil {
		return nil, err
	}
	dec := newDecoder(table)

	blocks := make([][N * N]int, int(nBlocks64))
	prevDC := 0
	for b := range blocks {
		// DC.
		id, err := dec.read(r)
		if err != nil {
			return nil, err
		}
		s := symbolFromID(id)
		if s.Run != 0 {
			return nil, fmt.Errorf("jpeg: block %d: DC symbol has run %d", b, s.Run)
		}
		bits, err := r.ReadBits(s.Size)
		if err != nil {
			return nil, err
		}
		dc := prevDC + demagnitude(bits, s.Size)
		blocks[b][0] = dc
		prevDC = dc
		// AC.
		k := 1
		for k < N*N {
			id, err := dec.read(r)
			if err != nil {
				return nil, err
			}
			s := symbolFromID(id)
			if s.Run == eobRun && s.Size == 0 {
				break
			}
			if s.Size == 0 { // ZRL filler
				k += maxRun
				continue
			}
			k += s.Run
			if k >= N*N {
				return nil, fmt.Errorf("jpeg: block %d: run overflows block", b)
			}
			bits, err := r.ReadBits(s.Size)
			if err != nil {
				return nil, err
			}
			blocks[b][k] = demagnitude(bits, s.Size)
			k++
		}
	}
	return blocks, nil
}
