package tensor

// Event-aware im2col variants for the dual-sparse forward path.
//
// SNN activations are binary spike tensors that are mostly zero, so the
// column matrix im2col produces is mostly zero too. The variants here expand
// the input exactly like Im2Col while additionally recording where the
// non-zeros are, at two granularities:
//
//   - Im2ColOccupancy marks which output columns (receptive-field patches)
//     are entirely zero, so column-masked GEMMs can skip them wholesale.
//   - Im2ColEvents records every non-zero entry as a CSR-style
//     (row → column list) pattern over the column matrix and verifies that
//     the input is binary, which is what the fully event-driven kernels in
//     internal/sparse consume.
//
// Both are single-pass: the bookkeeping is fused into the same loop that
// fills dst, so the extra cost is O(nnz) on top of the unavoidable
// O(C·KH·KW·OH·OW) fill.

// Im2ColOccupancy is Im2Col plus column-occupancy tracking: colActive[j] is
// set to true iff output column j (output position j = oy·OW+ox) receives at
// least one non-zero input value. colActive must have length OH·OW; it is
// fully overwritten. Returns the number of active columns.
//
// An inactive column means the entire receptive field of that output
// position is zero, so every GEMM output for it is exactly zero — the
// whole-column skip exploited by the column-masked kernels in
// internal/sparse.
func Im2ColOccupancy(dst, src []float32, c, h, w, kh, kw, stride, pad, oh, ow int, colActive []bool) int {
	p := oh * ow
	if len(colActive) != p {
		panic("tensor: Im2ColOccupancy colActive length mismatch")
	}
	Im2Col(dst, src, c, h, w, kh, kw, stride, pad, oh, ow)
	for j := range colActive {
		colActive[j] = false
	}
	rows := c * kh * kw
	active := 0
	for r := 0; r < rows; r++ {
		row := dst[r*p : (r+1)*p]
		for j, v := range row {
			if v != 0 && !colActive[j] {
				colActive[j] = true
				active++
			}
		}
	}
	return active
}

// Im2ColPatternFromEvents computes the same CSR-style event pattern
// Im2ColEvents extracts — row r's active output columns, ascending — directly
// from the input-space non-zero pattern of one sample, without touching a
// dense column matrix at all. flat lists the sample's non-zero positions as
// ascending flat C·H·W indices (one row of the tape's recorded event
// pattern); rowPtr must have length C·KH·KW+1; colIdx is appended to and
// returned (pass colIdx[:0] to reuse its backing array).
//
// This is the tape-replay fast path: work is O(KH·KW·nnz) instead of the
// O(C·KH·KW·OH·OW) dense expansion, so rebuilding a timestep's pattern costs
// ~occupancy of what the forward paid. The output is identical to what
// Im2ColEvents would produce for the decoded tensor (pinned by test and by
// FuzzIm2ColPatternFromEvents).
//
// Spikes ascend in (iy,ix), so each pass over a channel's spikes tracks the
// input row incrementally instead of dividing every index by W, and the
// emitted output columns j = oy·OW+ox ascend too — the CSR invariant.
func Im2ColPatternFromEvents(flat []int32, c, h, w, kh, kw, stride, pad, oh, ow int, rowPtr []int32, colIdx []int32) []int32 {
	if len(rowPtr) != c*kh*kw+1 {
		panic("tensor: Im2ColPatternFromEvents rowPtr length mismatch")
	}
	rowPtr[0] = 0
	start := 0
	for ci := 0; ci < c; ci++ {
		chanBase := int32(ci * h * w)
		chanHi := chanBase + int32(h*w)
		end := start
		for end < len(flat) && flat[end] < chanHi {
			end++
		}
		spikes := flat[start:end]
		r0 := ci * kh * kw
		if len(spikes) == 0 {
			for r := r0; r < r0+kh*kw; r++ {
				rowPtr[r+1] = int32(len(colIdx))
			}
		} else {
			for ki := 0; ki < kh; ki++ {
				for kj := 0; kj < kw; kj++ {
					if stride == 1 {
						colIdx = patternRowStride1(colIdx, spikes, chanBase, w, pad-ki, pad-kj, oh, ow)
					} else {
						colIdx = patternRowStrided(colIdx, spikes, chanBase, w, stride, pad-ki, pad-kj, oh, ow)
					}
					rowPtr[r0+ki*kw+kj+1] = int32(len(colIdx))
				}
			}
		}
		start = end
	}
	return colIdx
}

// patternRowStride1 appends one im2col row's active output columns for a
// stride-1 kernel offset: input (iy,ix) lands on output (iy+dy, ix+dx).
// spikes are one channel's ascending flat indices, chanBase its first index.
func patternRowStride1(colIdx, spikes []int32, chanBase int32, w, dy, dx, oh, ow int) []int32 {
	w32 := int32(w)
	rowLo, oy := chanBase, dy // flat index of input row iy's first pixel; iy+dy
	for _, f := range spikes {
		for f-rowLo >= w32 {
			rowLo += w32
			oy++
		}
		if oy >= oh {
			break // later spikes sit on this row or below
		}
		if oy < 0 {
			continue
		}
		if ox := int(f-rowLo) + dx; ox >= 0 && ox < ow {
			colIdx = append(colIdx, int32(oy*ow+ox))
		}
	}
	return colIdx
}

// patternRowStrided is patternRowStride1 for stride > 1: input (iy,ix) lands
// on output ((iy+dy)/stride, (ix+dx)/stride) when both divide exactly. The
// row test runs once per input row, the column test once per spike.
func patternRowStrided(colIdx, spikes []int32, chanBase int32, w, stride, dy, dx, oh, ow int) []int32 {
	w32 := int32(w)
	rowLo, ty := chanBase, dy // ty = iy+dy
	rowBase, rowOK := rowOutBase(ty, stride, oh, ow)
	for _, f := range spikes {
		if f-rowLo >= w32 {
			for f-rowLo >= w32 {
				rowLo += w32
				ty++
			}
			if ty >= oh*stride {
				break // no later spike reaches an output row
			}
			rowBase, rowOK = rowOutBase(ty, stride, oh, ow)
		}
		if !rowOK {
			continue
		}
		tx := int(f-rowLo) + dx
		if tx < 0 {
			continue
		}
		ox := tx / stride
		if ox*stride == tx && ox < ow {
			colIdx = append(colIdx, int32(rowBase+ox))
		}
	}
	return colIdx
}

// rowOutBase maps a padded input row ty to its output row's first column
// index oy·OW, reporting whether ty lands on an output row at all.
func rowOutBase(ty, stride, oh, ow int) (int, bool) {
	if ty < 0 {
		return 0, false
	}
	oy := ty / stride
	return oy * ow, oy*stride == ty && oy < oh
}

// Im2ColEvents is Im2Col plus event extraction: while filling dst it appends
// the column index of every non-zero entry to colIdx (row-major, so the
// result is grouped by row in ascending column order — exactly a CSR
// pattern) and records per-row extents in rowPtr, which must have length
// C·KH·KW+1. It also checks that every non-zero equals exactly 1.
//
// Returns the appended colIdx slice and whether the input was binary ({0,1}
// valued). When it returns binary=false the dst expansion is still complete
// and correct, but the event pattern is truncated and must be discarded —
// callers fall back to the dense or weight-only-CSR path.
//
// The caller owns the backing arrays, so a batch loop can reuse them across
// samples (pass colIdx[:0] to reset without reallocating).
func Im2ColEvents(dst, src []float32, c, h, w, kh, kw, stride, pad, oh, ow int, rowPtr []int32, colIdx []int32) ([]int32, bool) {
	if len(src) != c*h*w {
		panic("tensor: Im2ColEvents src length mismatch")
	}
	p := oh * ow
	if len(dst) != c*kh*kw*p {
		panic("tensor: Im2ColEvents dst length mismatch")
	}
	if len(rowPtr) != c*kh*kw+1 {
		panic("tensor: Im2ColEvents rowPtr length mismatch")
	}
	rowPtr[0] = 0
	binary := true
	for ci := 0; ci < c; ci++ {
		chanBase := ci * h * w
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				r := (ci*kh+ki)*kw + kj
				row := r * p
				for oy := 0; oy < oh; oy++ {
					iy := oy*stride + ki - pad
					dstRow := dst[row+oy*ow : row+(oy+1)*ow]
					if iy < 0 || iy >= h {
						for ox := range dstRow {
							dstRow[ox] = 0
						}
						continue
					}
					srcRow := src[chanBase+iy*w : chanBase+(iy+1)*w]
					jBase := int32(oy * ow)
					for ox := 0; ox < ow; ox++ {
						ix := ox*stride + kj - pad
						if ix < 0 || ix >= w {
							dstRow[ox] = 0
							continue
						}
						v := srcRow[ix]
						dstRow[ox] = v
						if v != 0 && binary {
							if v != 1 {
								binary = false
								continue
							}
							colIdx = append(colIdx, jBase+int32(ox))
						}
					}
				}
				rowPtr[r+1] = int32(len(colIdx))
			}
		}
	}
	return colIdx, binary
}
