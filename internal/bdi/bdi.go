// Package bdi implements the Base-Delta-Immediate cache-block compression
// algorithm (Pekhimenko et al., PACT 2012) in the modified form used by
// "Compression-Aware and Performance-Efficient Insertion Policies for
// Long-Lasting Hybrid LLCs" (HPCA 2023, §II-B): in addition to the original
// high-compression-ratio encodings, the low-compression-ratio (LCR)
// encodings with compressed sizes above 37 bytes are kept, because they
// still let partially worn-out NVM frames hold blocks that cannot be
// compressed further.
//
// A 64-byte block is viewed as an array of 8-, 4- or 2-byte values. If all
// values fit in a common base plus small signed deltas, the block is stored
// as base + deltas. All candidate encodings are evaluated (in hardware, in
// parallel) and the smallest is chosen.
package bdi

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// BlockSize is the uncompressed cache block size in bytes.
const BlockSize = 64

// HCRLimit is the compressed-size boundary (inclusive) between
// high-compression-ratio (HCR) and low-compression-ratio (LCR) blocks
// (paper §II-B: LCR blocks are those with compressed size greater than 37).
const HCRLimit = 37

// Encoding identifies one BDI compression encoding (the 4-bit CE field).
type Encoding uint8

// The encoding set. Order is part of the on-"wire" format: the CE field
// stored alongside a compressed block is the Encoding value itself.
const (
	EncUncompressed Encoding = iota // raw 64-byte block
	EncZeros                        // all-zero block
	EncRep8                         // one repeated 8-byte value
	EncB8D1                         // base 8 bytes, deltas 1 byte
	EncB4D1                         // base 4 bytes, deltas 1 byte
	EncB8D2                         // base 8 bytes, deltas 2 bytes
	EncB8D3                         // base 8 bytes, deltas 3 bytes
	EncB2D1                         // base 2 bytes, deltas 1 byte
	EncB4D2                         // base 4 bytes, deltas 2 bytes
	EncB8D4                         // base 8 bytes, deltas 4 bytes
	EncB8D5                         // base 8 bytes, deltas 5 bytes
	EncB4D3                         // base 4 bytes, deltas 3 bytes
	EncB8D6                         // base 8 bytes, deltas 6 bytes
	numEncodings
)

// Spec describes the geometry of one encoding.
type Spec struct {
	Enc   Encoding
	Name  string
	Base  int // base width in bytes (0 for special encodings)
	Delta int // delta width in bytes (0 for special encodings)
	Size  int // compressed size in bytes
}

// specs is indexed by Encoding.
var specs = [numEncodings]Spec{
	EncUncompressed: {EncUncompressed, "Uncompressed", 0, 0, 64},
	EncZeros:        {EncZeros, "Zeros", 0, 0, 1},
	EncRep8:         {EncRep8, "Rep8", 8, 0, 8},
	EncB8D1:         {EncB8D1, "B8D1", 8, 1, 8 + 8*1},
	EncB4D1:         {EncB4D1, "B4D1", 4, 1, 4 + 16*1},
	EncB8D2:         {EncB8D2, "B8D2", 8, 2, 8 + 8*2},
	EncB8D3:         {EncB8D3, "B8D3", 8, 3, 8 + 8*3},
	EncB2D1:         {EncB2D1, "B2D1", 2, 1, 2 + 32*1},
	EncB4D2:         {EncB4D2, "B4D2", 4, 2, 4 + 16*2},
	EncB8D4:         {EncB8D4, "B8D4", 8, 4, 8 + 8*4},
	EncB8D5:         {EncB8D5, "B8D5", 8, 5, 8 + 8*5},
	EncB4D3:         {EncB4D3, "B4D3", 4, 3, 4 + 16*3},
	EncB8D6:         {EncB8D6, "B8D6", 8, 6, 8 + 8*6},
}

// candidateOrder lists the delta encodings from smallest to largest
// compressed size; the compressor picks the first that covers the block.
var candidateOrder = []Encoding{
	EncB8D1, EncB4D1, EncB8D2, EncB8D3, EncB2D1, EncB4D2,
	EncB8D4, EncB8D5, EncB4D3, EncB8D6,
}

// Specs returns the full encoding table (Table I of the paper), ordered by
// compressed size.
func Specs() []Spec {
	out := make([]Spec, 0, numEncodings)
	out = append(out, specs[EncZeros], specs[EncRep8])
	for _, e := range candidateOrder {
		out = append(out, specs[e])
	}
	out = append(out, specs[EncUncompressed])
	return out
}

// SpecOf returns the geometry of enc.
func SpecOf(enc Encoding) Spec { return specs[enc] }

// Valid reports whether enc names a defined encoding (a 4-bit CE field can
// hold undefined values after corruption).
func Valid(enc Encoding) bool { return enc < numEncodings }

// String returns the encoding mnemonic.
func (e Encoding) String() string {
	if e >= numEncodings {
		return fmt.Sprintf("Encoding(%d)", uint8(e))
	}
	return specs[e].Name
}

// Size returns the compressed size of enc in bytes.
func (e Encoding) Size() int { return specs[e].Size }

// IsHCR reports whether enc is a high-compression-ratio encoding
// (compressed size <= HCRLimit).
func (e Encoding) IsHCR() bool { return e != EncUncompressed && specs[e].Size <= HCRLimit }

// IsLCR reports whether enc is a low-compression-ratio encoding: compressed
// but with size above HCRLimit.
func (e Encoding) IsLCR() bool { return e != EncUncompressed && specs[e].Size > HCRLimit }

// Class partitions blocks by compression outcome, as in Fig. 2.
type Class uint8

// Compression classes.
const (
	ClassIncompressible Class = iota
	ClassLCR
	ClassHCR
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassIncompressible:
		return "incompressible"
	case ClassLCR:
		return "LCR"
	case ClassHCR:
		return "HCR"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// ClassOf returns the compression class of enc.
func ClassOf(enc Encoding) Class {
	switch {
	case enc == EncUncompressed:
		return ClassIncompressible
	case specs[enc].Size <= HCRLimit:
		return ClassHCR
	default:
		return ClassLCR
	}
}

// Compressed is the result of compressing one block: the chosen encoding
// and the compressed payload (Data has length Encoding.Size(), except for
// EncUncompressed where it is the original 64 bytes).
type Compressed struct {
	Enc  Encoding
	Data []byte
}

// Size returns the compressed payload size in bytes.
func (c Compressed) Size() int { return len(c.Data) }

// EncodingOf computes the smallest applicable encoding for a 64-byte
// block without materializing any payload bytes. It is the size-only probe
// of the hardware's parallel encoder bank: one pass over the block derives
// the minimal signed delta width for each base size, and the smallest
// covering encoding wins. EncodingOf never allocates; it panics if the
// block is not exactly BlockSize bytes, which would indicate a simulator
// bug rather than a data condition.
func EncodingOf(block []byte) Encoding {
	if len(block) != BlockSize {
		panic(fmt.Sprintf("bdi: block size %d, want %d", len(block), BlockSize))
	}
	// One pass over the 8-byte values covers the zeros, Rep8 and base-8
	// probes; the base-4 and base-2 probes reuse the same loads.
	base8 := int64(binary.LittleEndian.Uint64(block))
	allZero, allRep := true, true
	w8 := 1 // minimal delta width (bytes) covering every base-8 delta
	for i := 0; i < BlockSize; i += 8 {
		v := int64(binary.LittleEndian.Uint64(block[i:]))
		if v != 0 {
			allZero = false
		}
		if v != base8 {
			allRep = false
		}
		if w := deltaWidth(v - base8); w > w8 {
			w8 = w
		}
	}
	if allZero {
		return EncZeros
	}
	if allRep {
		return EncRep8
	}
	base4 := signExtend(int64(binary.LittleEndian.Uint32(block)), 4)
	w4 := 1
	for i := 0; i < BlockSize; i += 4 {
		v := signExtend(int64(binary.LittleEndian.Uint32(block[i:])), 4)
		if w := deltaWidth(v - base4); w > w4 {
			w4 = w
		}
	}
	base2 := signExtend(int64(binary.LittleEndian.Uint16(block)), 2)
	w2 := 1
	for i := 0; i < BlockSize; i += 2 {
		v := signExtend(int64(binary.LittleEndian.Uint16(block[i:])), 2)
		if w := deltaWidth(v - base2); w > w2 {
			w2 = w
		}
	}
	// Pick the smallest covering encoding. The candidate sizes are all
	// distinct, so minimizing size is identical to taking the first
	// covering entry of candidateOrder.
	best, bestSize := EncUncompressed, BlockSize
	if w8 <= 6 {
		best, bestSize = b8Encodings[w8], specs[b8Encodings[w8]].Size
	}
	if w4 <= 3 && specs[b4Encodings[w4]].Size < bestSize {
		best, bestSize = b4Encodings[w4], specs[b4Encodings[w4]].Size
	}
	if w2 <= 1 && specs[EncB2D1].Size < bestSize {
		best = EncB2D1
	}
	return best
}

// b8Encodings and b4Encodings map a required delta width to the encoding
// of that base size.
var (
	b8Encodings = [7]Encoding{0, EncB8D1, EncB8D2, EncB8D3, EncB8D4, EncB8D5, EncB8D6}
	b4Encodings = [4]Encoding{0, EncB4D1, EncB4D2, EncB4D3}
)

// deltaWidth returns the minimal number of bytes whose signed range covers
// d (1..9; values above 8 mean "wider than any encoding").
func deltaWidth(d int64) int {
	// Significant bits of the two's-complement representation: magnitude
	// bits (with negative values folded via complement) plus a sign bit.
	return (bits.Len64(uint64(d^(d>>63))) + 8) / 8
}

// SizeOf returns the compressed size of a block in bytes without building
// payload bytes — the cheap size-only function every insertion-policy
// decision uses. It is equivalent to Compress(block).Size() and allocates
// nothing.
func SizeOf(block []byte) int { return specs[EncodingOf(block)].Size }

// Compress compresses a 64-byte block, choosing the smallest applicable
// encoding. It panics if the block is not exactly BlockSize bytes, which
// would indicate a simulator bug rather than a data condition.
func Compress(block []byte) Compressed { return CompressInto(nil, block) }

// CompressInto compresses a 64-byte block like Compress, writing the
// payload into scratch (grown only when its capacity is insufficient; a
// 64-byte scratch always suffices). The returned Compressed.Data aliases
// scratch's storage, so the caller owns the buffer and must not modify it
// while the Compressed value is in use. With an adequate scratch the call
// performs zero allocations.
func CompressInto(scratch []byte, block []byte) Compressed {
	enc := EncodingOf(block)
	spec := &specs[enc]
	if cap(scratch) < spec.Size {
		scratch = make([]byte, spec.Size)
	}
	data := scratch[:spec.Size]
	switch enc {
	case EncUncompressed:
		copy(data, block)
	case EncZeros:
		data[0] = 0
	case EncRep8:
		copy(data, block[:8])
	default:
		base := signExtend(int64(readUint(block[:spec.Base], spec.Base)), spec.Base)
		writeUint(data, uint64(base), spec.Base)
		n := BlockSize / spec.Base
		for i := 0; i < n; i++ {
			v := signExtend(int64(readUint(block[i*spec.Base:], spec.Base)), spec.Base)
			writeUint(data[spec.Base+i*spec.Delta:], uint64(v-base), spec.Delta)
		}
	}
	return Compressed{enc, data}
}

// Decompress reconstructs the original 64-byte block. It returns an error
// if the payload length does not match the encoding, which in hardware
// corresponds to a corrupted CE field.
func Decompress(c Compressed) ([]byte, error) {
	return DecompressInto(nil, c)
}

// DecompressInto reconstructs the original 64-byte block into dst (grown
// only when its capacity is below BlockSize). The returned slice aliases
// dst's storage; with an adequate dst the call performs zero allocations.
func DecompressInto(dst []byte, c Compressed) ([]byte, error) {
	if c.Enc >= numEncodings {
		return nil, fmt.Errorf("bdi: invalid encoding %d", c.Enc)
	}
	spec := &specs[c.Enc]
	if len(c.Data) != spec.Size {
		return nil, fmt.Errorf("bdi: payload %dB does not match encoding %s (%dB)",
			len(c.Data), spec.Name, spec.Size)
	}
	if cap(dst) < BlockSize {
		dst = make([]byte, BlockSize)
	}
	out := dst[:BlockSize]
	switch c.Enc {
	case EncUncompressed:
		copy(out, c.Data)
	case EncZeros:
		for i := range out {
			out[i] = 0
		}
	case EncRep8:
		for i := 0; i < BlockSize; i += 8 {
			copy(out[i:i+8], c.Data)
		}
	default:
		base := int64(readUint(c.Data[:spec.Base], spec.Base))
		base = signExtend(base, spec.Base)
		n := BlockSize / spec.Base
		for i := 0; i < n; i++ {
			d := int64(readUint(c.Data[spec.Base+i*spec.Delta:], spec.Delta))
			d = signExtend(d, spec.Delta)
			writeUint(out[i*spec.Base:], uint64(base+d), spec.Base)
		}
	}
	return out, nil
}

func readUint(b []byte, w int) uint64 {
	switch w {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 3:
		return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 5, 6, 7:
		var v uint64
		for i := 0; i < w; i++ {
			v |= uint64(b[i]) << (8 * uint(i))
		}
		return v
	case 8:
		return binary.LittleEndian.Uint64(b)
	}
	panic("bdi: unsupported width")
}

func writeUint(b []byte, v uint64, w int) {
	for i := 0; i < w; i++ {
		b[i] = byte(v >> (8 * uint(i)))
	}
}

// signExtend interprets the low w*8 bits of v as a signed integer.
func signExtend(v int64, w int) int64 {
	shift := uint(64 - 8*w)
	return v << shift >> shift
}
