package tensor

import (
	"testing"

	"ndsnn/internal/rng"
)

// FuzzIm2ColPatternFromEvents checks the tape-replay pattern rebuild against
// the forward's extraction over random geometries: 1–4 channels, 1–9 rows
// and columns, kernels 1–5 (clamped to the padded input), stride 1–3,
// padding 0–2 and spike rates 0–1. The rebuilt rowPtr and colIdx must equal
// what Im2ColEvents records while filling the dense column matrix. CI replays
// the seed corpus (f.Add plus testdata/fuzz); `go test -fuzz=FuzzIm2Col
// ./internal/tensor` explores from there.
func FuzzIm2ColPatternFromEvents(f *testing.F) {
	f.Add(uint8(2), uint8(6), uint8(6), uint8(3), uint8(1), uint8(1), uint8(40), uint64(1))  // VGG-style same conv
	f.Add(uint8(1), uint8(8), uint8(5), uint8(3), uint8(2), uint8(1), uint8(128), uint64(2)) // strided, non-square
	f.Add(uint8(3), uint8(4), uint8(4), uint8(2), uint8(3), uint8(2), uint8(255), uint64(3)) // every pixel fires
	f.Add(uint8(1), uint8(5), uint8(5), uint8(5), uint8(1), uint8(0), uint8(0), uint64(4))   // silent input
	f.Fuzz(func(t *testing.T, cB, hB, wB, kB, sB, pB, rateB uint8, seed uint64) {
		c := 1 + int(cB)%4
		h := 1 + int(hB)%9
		w := 1 + int(wB)%9
		stride := 1 + int(sB)%3
		pad := int(pB) % 3
		k := min(1+int(kB)%5, h+2*pad, w+2*pad)
		oh := ConvOutSize(h, k, stride, pad)
		ow := ConvOutSize(w, k, stride, pad)
		ckk := c * k * k
		src := spikeInput(c, h, w, float64(rateB)/255, rng.New(seed))
		wantPtr := make([]int32, ckk+1)
		wantIdx, binary := Im2ColEvents(make([]float32, ckk*oh*ow), src, c, h, w, k, k, stride, pad, oh, ow, wantPtr, nil)
		if !binary {
			t.Fatal("binary input rejected")
		}
		var flat []int32
		for i, v := range src {
			if v != 0 {
				flat = append(flat, int32(i))
			}
		}
		gotPtr := make([]int32, ckk+1)
		gotIdx := Im2ColPatternFromEvents(flat, c, h, w, k, k, stride, pad, oh, ow, gotPtr, nil)
		for i, p := range wantPtr {
			if gotPtr[i] != p {
				t.Fatalf("c=%d h=%d w=%d k=%d stride=%d pad=%d: rowPtr[%d] = %d, want %d", c, h, w, k, stride, pad, i, gotPtr[i], p)
			}
		}
		if len(gotIdx) != len(wantIdx) {
			t.Fatalf("c=%d h=%d w=%d k=%d stride=%d pad=%d: %d events, want %d", c, h, w, k, stride, pad, len(gotIdx), len(wantIdx))
		}
		for i, j := range wantIdx {
			if gotIdx[i] != j {
				t.Fatalf("c=%d h=%d w=%d k=%d stride=%d pad=%d: event %d = col %d, want %d", c, h, w, k, stride, pad, i, gotIdx[i], j)
			}
		}
	})
}
