package kernels

import "github.com/securetf/securetf/internal/par"

// Convolution and its filter gradient are GEMMs over the input as it
// lies in memory, at row strides (gemm); nothing is gathered into an
// im2col matrix, whose row r = (b, oy, ox) would hold the K = KH·KW·C
// input values under output position r's window.
//
// Forward: take output line (b, oy) and filter row ky. The KW·C values of
// consecutive windows along ox are overlapping runs of one input row,
// Stride·C apart, so that row already is an [OW, KW·C] matrix at row
// stride Stride·C, and gemm multiplies it by the ky block of the filter
// [KH,KW,C,F]: the [KW·C, F] matrix from row ky·KW·C on. Summing over ky
// call by call keeps each output's order kk = (ky, kx, c), the partial
// sum passing through memory as the float32 it is. Windows that hang over
// the padding read a zeroed, padded copy of their image instead of x.
//
// Filter gradient: its K columns are separate sums, so their order is
// free, and a whole window is one run once the KH input rows under an
// output line are interleaved. The band [OH, Wb, KH, C] holds at
// (oy, x, ky) the input pixel (oy·Stride+ky-PadTop, x-PadLeft), zero in
// the padding; window (oy, ox) is the KW·KH·C floats from band pixel
// (oy, ox·Stride) on, in (kx, ky, c) order. Wb is a multiple of Stride,
// so position p = oy·Wb/Stride + ox starts at float p·Stride·KH·C: an
// image's windows are one matrix at row stride Stride·KH·C, and one gemm
// call per image reads its output gradient once. Positions with ox ≥ OW
// are no output; their gradient is zero and skipped. The band copies each
// input value KH times, where im2col copied it K/C times.
//
// The working memory is therefore one image, padded or banded, and for
// the filter gradient that image's output gradient and the filter's
// gradient, both transposed so that gemm's skipped scalar is the output
// gradient, the sparsest operand. The input gradient still gathers its
// dcol rows a tile at a time and scatters them with col2imAdd: its
// contract sums each dcol row from +0 before it reaches dx, and adding
// into dx directly would round differently.

// tileFloats sizes the input gradient's pooled dcol tile: 32 KiB, so
// that a tile and the filter stay in L2 whatever the batch. A tile holds
// as many whole rows as keep both its [rows,K] matrix and its rows'
// [rows,F] gradient within tileFloats, and one row when K or F is larger
// than that.
const tileFloats = 8 << 10

// convScratch is the working memory of one convolution call. The slices
// grow to the largest geometry seen and are kept, so a call on a warm
// pool allocates nothing.
type convScratch struct {
	img  []float32 // [Hp,Wp,C] one image inside its padding, or its band
	wt   []float32 // [F,K] the filter, or its gradient, transposed
	tile []float32 // [F,positions] an image's output gradient transposed, or [rows,K] dcol rows
}

// scratchPool is shared by every session and interpreter in the process.
// It is a par.Free, not a sync.Pool: a sync.Pool keeps what a call put
// back in that processor's slot, where a call that runs on another
// processor cannot find it, and empties on a collection, so a warm step
// would grow a fresh scratch now and then.
var scratchPool = make(par.Free[convScratch], 16) // above the convolutions in flight at once

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

// reach is the extent [Hp,Wp] of the input the windows cover, padding
// included.
func (g Geom) reach() (hp, wp int) {
	return (g.OH-1)*g.Stride + g.KH, (g.OW-1)*g.Stride + g.KW
}

// padding returns a zeroed [Hp,Wp,C] buffer for image's padded copies,
// or nil when every window lies inside the input and reads x in place.
func (s *convScratch) padding(g Geom) []float32 {
	hp, wp := g.reach()
	if g.PadTop == 0 && g.PadLeft == 0 && hp <= g.H && wp <= g.W {
		return nil
	}
	s.img = grow(s.img, hp*wp*g.C)
	clear(s.img)
	return s.img
}

// image returns image b of x as its windows read it, and the width of
// that view in pixels: x itself, or with a non-nil pad from padding, b's
// rows copied into it at (PadTop, PadLeft) over the zeros left there.
// Window (oy, ox) of filter row ky then starts at float
// ((oy·Stride+ky)·width + ox·Stride)·C of the view.
func (g Geom) image(pad, x []float32, b int) (view []float32, width int) {
	size := g.H * g.W * g.C
	img := x[b*size : (b+1)*size]
	if pad == nil {
		return img, g.W
	}
	hp, wp := g.reach()
	run := min(g.W, wp-g.PadLeft) * g.C
	for y := range min(g.H, hp-g.PadTop) {
		copy(pad[((y+g.PadTop)*wp+g.PadLeft)*g.C:][:run], img[y*g.W*g.C:])
	}
	return pad, wp
}

// Conv2DInto accumulates the convolution of x with filter into the
// zeroed dst [N,OH,OW,F]: dst[r,:] += col[r,kk]·filter[kk,:] over
// kk = (ky, kx, c) ascending, zero col entries skipped. Each output line
// (b, oy) is KH gemm calls, one per filter row.
func Conv2DInto(dst, x, filter []float32, g Geom) {
	s := scratchPool.Get()
	defer scratchPool.Put(s)
	pad := s.padding(g)
	kw, line := g.KW*g.C, g.OW*g.F
	for b := range g.N {
		img, width := g.image(pad, x, b)
		for oy := range g.OH {
			out := dst[(b*g.OH+oy)*line:][:line]
			for ky := range g.KH {
				gemm(out, img[(oy*g.Stride+ky)*width*g.C:], filter[ky*kw*g.F:], 0, g.OW, kw, g.F, g.Stride*g.C, g.F, g.F)
			}
		}
	}
}

// bandWidth returns the band's Wb, the least multiple of Stride that
// holds the windows' reach Wp, and the window positions per band line.
func (g Geom) bandWidth() (wb, perLine int) {
	_, wp := g.reach()
	perLine = (wp + g.Stride - 1) / g.Stride
	return perLine * g.Stride, perLine
}

// band writes image b of x into the band, whose padding the caller has
// zeroed and which has rows of KH·C floats.
func (g Geom) band(band, x []float32, b int) {
	wb, _ := g.bandWidth()
	size, kc := g.H*g.W*g.C, g.KH*g.C
	img := x[b*size : (b+1)*size]
	w := min(g.W, wb-g.PadLeft)
	for oy := range g.OH {
		for ky := range g.KH {
			iy := oy*g.Stride + ky - g.PadTop
			if iy < 0 || iy >= g.H {
				continue
			}
			src := img[iy*g.W*g.C : (iy*g.W+w)*g.C]
			dst := band[((oy*wb+g.PadLeft)*g.KH+ky)*g.C:]
			for i, o := 0, 0; i < len(src); i, o = i+g.C, o+kc {
				for c := range g.C {
					dst[o+c] = src[i+c]
				}
			}
		}
	}
}

// Conv2DGradFilterInto writes the gradient of the convolution with
// respect to its filter into dFilter [KH,KW,C,F], given the gradient
// gradOut [N,OH,OW,F] of its output: dFilterᵀ[f,:] += gradOut[r,f]·col[r,:]
// over r ascending from zero, zero gradOut entries skipped. Each image is
// one gemm call over its band.
func Conv2DGradFilterInto(dFilter, gradOut, x []float32, g Geom) {
	s := scratchPool.Get()
	defer scratchPool.Put(s)
	wb, perLine := g.bandWidth()
	k, kc := g.KH*g.KW*g.C, g.KH*g.C
	q := (g.OH-1)*perLine + g.OW // positions of one image, the last line cut at OW
	s.img = grow(s.img, g.OH*wb*kc)
	clear(s.img)
	s.tile = grow(s.tile, g.F*q)
	gt := s.tile
	clear(gt)
	s.wt = grow(s.wt, g.F*k)
	clear(s.wt)
	for b := range g.N {
		g.band(s.img, x, b)
		grad := gradOut[b*g.OH*g.OW*g.F : (b+1)*g.OH*g.OW*g.F]
		for oy := range g.OH {
			for ox := range g.OW {
				p := oy*perLine + ox
				for f, v := range grad[(oy*g.OW+ox)*g.F:][:g.F] {
					gt[f*q+p] = v
				}
			}
		}
		gemm(s.wt, gt, s.img, 0, g.F, q, k, q, g.Stride*kc, k)
	}
	// wt's columns are (kx, ky, c), dFilter's rows (ky, kx, c).
	for f := range g.F {
		for kx := range g.KW {
			for ky := range g.KH {
				for c, v := range s.wt[f*k+(kx*g.KH+ky)*g.C:][:g.C] {
					dFilter[((ky*g.KW+kx)*g.C+c)*g.F+f] = v
				}
			}
		}
	}
}

// Conv2DGradInputInto accumulates the gradient of the convolution with
// respect to its input into the zeroed dx [N,H,W,C]: each im2col row's
// gradient is dcol[r,:] = Σ_f gradOut[r,f]·filterᵀ[f,:] over f ascending
// from zero, zero gradOut entries skipped, and dx sums the dcol entries
// that fall on it in r order. Rows whose gradOut is all zero
// contribute nothing and are not scattered.
func Conv2DGradInputInto(dx, gradOut, filter []float32, g Geom) {
	rows, k, step := g.tiling()
	s := scratchPool.Get()
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

// col2imAdd adds rows [r0,r1) of dcol onto the input elements under
// their windows, in r order, skipping the rows whose output gradient
// grad [r1-r0,F] is all zero. A row's window is one run per input row
// it covers, added with addRuns: each element of dx adds its dcol
// entries in r order.
func (g Geom) col2imAdd(dx, dcol, grad []float32, r0, r1 int) {
	k, rowC := g.KH*g.KW*g.C, g.W*g.C
	b, oy, ox := g.position(r0)
	for r := r0; r < r1; r++ {
		if !allZero(grad[(r-r0)*g.F : (r-r0+1)*g.F]) {
			row := dcol[(r-r0)*k : (r-r0+1)*k]
			base, iy0, kx0, kx1 := g.window(b, oy, ox)
			if ky0, ky1 := max(0, -iy0), min(g.KH, g.H-iy0); ky0 < ky1 {
				addRuns(dx[base+ky0*rowC+kx0*g.C:], row[(ky0*g.KW+kx0)*g.C:], (kx1-kx0)*g.C, ky1-ky0, rowC, g.KW*g.C)
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
