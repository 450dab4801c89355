package kernels

import "sync"

// Convolution and its two gradients are lowered to GEMM over tiles of
// output rows: row r = (b, oy, ox) of the im2col matrix holds the
// K = KH·KW·C input values under output position r's window, zeros where
// the window hangs over the padding, and the filter [KH,KW,C,F] is
// already the [K,F] matrix it is multiplied with. Only one tile of the
// im2col matrix exists at a time. The gradients are oriented so that
// matMulRows' inner loop runs along K and its skipped scalar is the
// output gradient, the sparsest operand of the three.

// tileFloats sizes the pooled im2col tile: 64 KiB, so that a tile and
// the filter stay in L2 whatever the batch. A tile holds as many whole
// rows as keep both its [rows,K] matrix and the [F,rows] transposed
// gradient within tileFloats, and one row when K or F is larger than
// that.
const tileFloats = 16 << 10

// convScratch is the working memory of one convolution call. The slices
// grow to the largest filter seen and are kept, so a call on a warm pool
// allocates nothing.
type convScratch struct {
	tile []float32 // [rows,K] im2col rows of the current tile, or their gradient
	wt   []float32 // [F,K] the filter, or its gradient, transposed
	gt   []float32 // [F,rows] the current tile's output gradient, transposed
}

// scratchPool is shared by every session and interpreter in the process.
var scratchPool = sync.Pool{New: func() any { return new(convScratch) }}

func grow(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// tiling returns the im2col matrix's dimensions and the rows per tile.
func (g Geom) tiling() (rows, k, step int) {
	rows, k = g.N*g.OH*g.OW, g.KH*g.KW*g.C
	return rows, k, min(rows, max(1, tileFloats/max(k, g.F)))
}

// Conv2DInto accumulates the convolution of x with filter into the
// zeroed dst [N,OH,OW,F]: dst[r,:] += col[r,kk]·filter[kk,:] over
// kk = (ky, kx, c) ascending, zero col entries skipped.
func Conv2DInto(dst, x, filter []float32, g Geom) {
	rows, k, step := g.tiling()
	s := scratchPool.Get().(*convScratch)
	defer scratchPool.Put(s)
	s.tile = grow(s.tile, step*k)
	for r0 := 0; r0 < rows; r0 += step {
		r1 := min(r0+step, rows)
		g.im2col(s.tile, x, r0, r1)
		matMulRows(dst[r0*g.F:r1*g.F], s.tile, filter, 0, r1-r0, k, g.F)
	}
}

// Conv2DGradFilterInto writes the gradient of the convolution with
// respect to its filter into dFilter [KH,KW,C,F], given the gradient
// gradOut [N,OH,OW,F] of its output: dFilterᵀ[f,:] += gradOut[r,f]·col[r,:]
// over r ascending from zero, zero gradOut entries skipped.
func Conv2DGradFilterInto(dFilter, gradOut, x []float32, g Geom) {
	rows, k, step := g.tiling()
	s := scratchPool.Get().(*convScratch)
	defer scratchPool.Put(s)
	s.tile = grow(s.tile, step*k)
	s.gt = grow(s.gt, g.F*step)
	s.wt = grow(s.wt, g.F*k)
	clear(s.wt)
	for r0 := 0; r0 < rows; r0 += step {
		r1 := min(r0+step, rows)
		n := r1 - r0
		g.im2col(s.tile, x, r0, r1)
		Transpose(s.gt, gradOut[r0*g.F:r1*g.F], n, g.F)
		matMulRows(s.wt, s.gt, s.tile, 0, g.F, n, k)
	}
	Transpose(dFilter, s.wt, g.F, k)
}

// Conv2DGradInputInto accumulates the gradient of the convolution with
// respect to its input into the zeroed dx [N,H,W,C]: each im2col row's
// gradient is dcol[r,:] = Σ_f gradOut[r,f]·filterᵀ[f,:] over f ascending
// from zero, zero gradOut entries skipped, and dx sums the dcol entries
// that fall on it in r order. Rows whose gradOut is all zero
// contribute nothing and are not scattered.
func Conv2DGradInputInto(dx, gradOut, filter []float32, g Geom) {
	rows, k, step := g.tiling()
	s := scratchPool.Get().(*convScratch)
	defer scratchPool.Put(s)
	s.tile = grow(s.tile, step*k)
	s.wt = grow(s.wt, g.F*k)
	Transpose(s.wt, filter, k, g.F)
	for r0 := 0; r0 < rows; r0 += step {
		r1 := min(r0+step, rows)
		grad := gradOut[r0*g.F : r1*g.F]
		clear(s.tile[:(r1-r0)*k])
		matMulRows(s.tile, grad, s.wt, 0, r1-r0, g.F, k)
		g.col2imAdd(dx, s.tile, grad, r0, r1)
	}
}

// Transpose writes the transpose of src [m,n] into dst [n,m].
func Transpose(dst, src []float32, m, n int) {
	for i := 0; i < m; i++ {
		for j, v := range src[i*n : (i+1)*n] {
			dst[j*m+i] = v
		}
	}
}

// window locates the window of output position (b, oy, ox) in the
// input: the flat offset of input element [b, oy·Stride-PadTop,
// ox·Stride-PadLeft, 0] (which may lie in the padding, so is only a base
// to index from), the window's first input row iy0, and the half-open
// range of kx whose column lies inside the input, which ConvGeom's
// padding never leaves empty.
func (g Geom) window(b, oy, ox int) (base, iy0, kx0, kx1 int) {
	iy0 = oy*g.Stride - g.PadTop
	ix0 := ox*g.Stride - g.PadLeft
	kx0, kx1 = max(0, -ix0), min(g.KW, g.W-ix0)
	return ((b*g.H+iy0)*g.W + ix0) * g.C, iy0, kx0, kx1
}

// position splits output row r into (b, oy, ox); next steps it to row
// r+1 without the divisions.
func (g Geom) position(r int) (b, oy, ox int) {
	return r / (g.OW * g.OH), r / g.OW % g.OH, r % g.OW
}

func (g Geom) next(b, oy, ox int) (int, int, int) {
	if ox++; ox == g.OW {
		ox = 0
		if oy++; oy == g.OH {
			oy = 0
			b++
		}
	}
	return b, oy, ox
}

// im2col gathers rows [r0,r1) of the im2col matrix of x into col. A
// window wholly inside the input is KH runs of KW·C input values and
// needs no padding zeros.
func (g Geom) im2col(col, x []float32, r0, r1 int) {
	rowC, rowW := g.KW*g.C, g.W*g.C
	b, oy, ox := g.position(r0)
	for r := r0; r < r1; r++ {
		base, iy0, kx0, kx1 := g.window(b, oy, ox)
		row := col[:g.KH*rowC]
		col = col[len(row):]
		if kx0 == 0 && kx1 == g.KW && iy0 >= 0 && iy0+g.KH <= g.H {
			for ky := 0; ky < g.KH; ky++ {
				copy(row[ky*rowC:(ky+1)*rowC], x[base+ky*rowW:])
			}
		} else {
			for ky := 0; ky < g.KH; ky++ {
				seg := row[ky*rowC : (ky+1)*rowC]
				if iy := iy0 + ky; iy < 0 || iy >= g.H {
					clear(seg)
					continue
				}
				src := base + ky*rowW
				clear(seg[:kx0*g.C])
				copy(seg[kx0*g.C:kx1*g.C], x[src+kx0*g.C:src+kx1*g.C])
				clear(seg[kx1*g.C:])
			}
		}
		b, oy, ox = g.next(b, oy, ox)
	}
}

// col2imAdd is im2col's adjoint: it adds rows [r0,r1) of dcol onto the
// input elements they were gathered from, in r order, skipping the rows
// whose output gradient grad [r1-r0,F] is all zero.
func (g Geom) col2imAdd(dx, dcol, grad []float32, r0, r1 int) {
	k := g.KH * g.KW * g.C
	b, oy, ox := g.position(r0)
	for r := r0; r < r1; r++ {
		if !allZero(grad[(r-r0)*g.F : (r-r0+1)*g.F]) {
			row := dcol[(r-r0)*k : (r-r0+1)*k]
			base, iy0, kx0, kx1 := g.window(b, oy, ox)
			for ky := 0; ky < g.KH; ky++ {
				if iy := iy0 + ky; iy < 0 || iy >= g.H {
					continue
				}
				at := base + ky*g.W*g.C
				out := dx[at+kx0*g.C : at+kx1*g.C]
				for j, v := range row[(ky*g.KW+kx0)*g.C : (ky*g.KW+kx1)*g.C] {
					out[j] += v
				}
			}
		}
		b, oy, ox = g.next(b, oy, ox)
	}
}

func allZero(v []float32) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}
