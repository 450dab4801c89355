package tf

import (
	"cmp"
	"fmt"

	"github.com/securetf/securetf/internal/tf/kernels"
)

// Gradient kernels. Several need values cached by the matching forward
// kernel; the forward node's name is carried in the grad node's
// "forward" attribute and looked up in the run's extras (forward).

func kernelReluGrad(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	gradOut, x := in[0], in[1]
	out := ctx.out()
	kernels.ReluGrad(out.f32, gradOut.f32, x.f32)
	ctx.charge(n, int64(len(x.f32)), 3*x.Bytes(), false)
	return out, nil
}

// kernelOutputGrad lifts a gradient that is a function of the output
// gradient and the forward op's output y.
func kernelOutputGrad(f func(g, y float32) float32) kernelFunc {
	return func(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
		gradOut, y := in[0], in[1]
		out := ctx.out()
		for i, v := range y.f32 {
			out.f32[i] = f(gradOut.f32[i], v)
		}
		ctx.charge(n, 3*int64(len(y.f32)), 3*y.Bytes(), false)
		return out, nil
	}
}

func kernelBiasAddGrad(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	gradOut := in[0]
	_, cols := kernels.RowsCols(gradOut.Shape())
	out := ctx.out()
	if err := kernels.BiasAddGrad(out.f32, gradOut.f32, cols); err != nil {
		return nil, fmt.Errorf("tf: BiasAddGrad: %w", err)
	}
	ctx.charge(n, int64(len(gradOut.f32)), gradOut.Bytes(), true)
	return out, nil
}

// kernelMaxPoolGrad routes the gradient through the argmax the forward
// pool cached over a tensor of x's shape.
func kernelMaxPoolGrad(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	gradOut, x := in[0], in[1]
	c, err := ctx.forward(n, OpMaxPool, x)
	if c == nil {
		return nil, cmp.Or(err, fmt.Errorf("tf: MaxPoolGrad: forward cache for %q missing", attr(n, "forward", "")))
	}
	out := ctx.out()
	if err := kernels.MaxPoolGrad(out.f32, gradOut.f32, c.argmax, c.geo); err != nil {
		return nil, fmt.Errorf("tf: MaxPoolGrad: %w", err)
	}
	ctx.charge(n, int64(len(c.argmax)), gradOut.Bytes()+out.Bytes(), false)
	return out, nil
}

func kernelAvgPoolGrad(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	gradOut, x := in[0], in[1]
	geo, err := poolGeom(x, n)
	if err != nil {
		return nil, err
	}
	out := ctx.zeroed()
	area := float32(geo.KH * geo.KW)
	for b := 0; b < geo.N; b++ {
		for oy := 0; oy < geo.OH; oy++ {
			for ox := 0; ox < geo.OW; ox++ {
				for cc := 0; cc < geo.C; cc++ {
					g := gradOut.f32[((b*geo.OH+oy)*geo.OW+ox)*geo.C+cc] / area
					for ky := 0; ky < geo.KH; ky++ {
						for kx := 0; kx < geo.KW; kx++ {
							out.f32[((b*geo.H+oy*geo.Stride+ky)*geo.W+ox*geo.Stride+kx)*geo.C+cc] += g
						}
					}
				}
			}
		}
	}
	ctx.charge(n, int64(gradOut.NumElements())*int64(geo.KH*geo.KW), gradOut.Bytes()+out.Bytes(), false)
	return out, nil
}

func kernelConv2DGradInput(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	gradOut, x, filter := in[0], in[1], in[2]
	geo, err := conv2DGeom(x, filter, n)
	if err != nil {
		return nil, err
	}
	out := ctx.zeroed()
	kernels.Conv2DGradInputInto(out.f32, gradOut.f32, filter.f32, geo)
	ctx.charge(n, geo.ConvFLOPs(), gradOut.Bytes()+filter.Bytes()+out.Bytes(), false)
	return out, nil
}

func kernelConv2DGradFilter(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	gradOut, x, filter := in[0], in[1], in[2]
	geo, err := conv2DGeom(x, filter, n)
	if err != nil {
		return nil, err
	}
	out := ctx.out()
	kernels.Conv2DGradFilterInto(out.f32, gradOut.f32, x.f32, geo)
	ctx.charge(n, geo.ConvFLOPs(), gradOut.Bytes()+x.Bytes()+out.Bytes(), false)
	return out, nil
}

func kernelSoftmaxXentGrad(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	gradOut, logits, labels := in[0], in[1], in[2]
	rows, cols := kernels.RowsCols(logits.Shape())
	c, err := ctx.forward(n, OpSoftmaxXent, logits)
	if err != nil {
		return nil, err
	}
	if c == nil {
		// Recompute: the forward node may not have been cached (e.g. a
		// restored gradient graph).
		c = &cache{f32: ctx.sess.f32.get(rows*cols, false)}
		if err := kernels.SoftmaxRows(c.f32, logits.f32, cols); err != nil {
			return nil, err
		}
	}
	probs, out := c.f32, ctx.out()
	for r := 0; r < rows; r++ {
		g := gradOut.f32[r]
		for c := 0; c < cols; c++ {
			idx := r*cols + c
			out.f32[idx] = g * (probs[idx] - labels.f32[idx])
		}
	}
	ctx.charge(n, 2*int64(rows)*int64(cols), 3*logits.Bytes(), false)
	return out, nil
}

func kernelDropoutGrad(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	gradOut := in[0]
	c, err := ctx.forward(n, OpDropout, gradOut)
	if err != nil {
		return nil, err
	}
	if c == nil {
		// Inference (or forward not run in training mode): identity.
		return gradOut, nil
	}
	out := ctx.out()
	for i, v := range gradOut.f32 {
		out.f32[i] = v * c.f32[i]
	}
	ctx.charge(n, int64(len(c.f32)), 3*gradOut.Bytes(), false)
	return out, nil
}
