package tf

import (
	"fmt"

	"github.com/securetf/securetf/internal/tf/kernels"
)

// Gradient kernels. Several need values cached by the matching forward
// kernel; the forward node's name is carried in the grad node's
// "forward" attribute and looked up in the run's extras.

// sameSize refuses a gradient and an operand that are not float32
// tensors of one element count: a graph is untrusted, and nothing before
// the kernel checks that its inputs agree.
func sameSize(n *Node, gradOut, y *Tensor) error {
	if count := y.NumElements(); len(gradOut.f32) != count || len(y.f32) != count {
		return fmt.Errorf("tf: %s: a gradient of %d floats for an operand of %d, %v", n.op, len(gradOut.f32), len(y.f32), y.Shape())
	}
	return nil
}

func kernelReluGrad(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	gradOut, x := in[0], in[1]
	if err := sameSize(n, gradOut, x); err != nil {
		return nil, err
	}
	out := ctx.out(x.Shape())
	kernels.ReluGrad(out.f32, gradOut.f32, x.f32)
	ctx.charge(n, int64(len(x.f32)), 3*x.Bytes(), false)
	return out, nil
}

func kernelSigmoidGrad(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	gradOut, y := in[0], in[1]
	if err := sameSize(n, gradOut, y); err != nil {
		return nil, err
	}
	out := ctx.out(y.Shape())
	for i, v := range y.f32 {
		out.f32[i] = gradOut.f32[i] * v * (1 - v)
	}
	ctx.charge(n, 3*int64(len(y.f32)), 3*y.Bytes(), false)
	return out, nil
}

func kernelTanhGrad(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	gradOut, y := in[0], in[1]
	if err := sameSize(n, gradOut, y); err != nil {
		return nil, err
	}
	out := ctx.out(y.Shape())
	for i, v := range y.f32 {
		out.f32[i] = gradOut.f32[i] * (1 - float32(v*v))
	}
	ctx.charge(n, 3*int64(len(y.f32)), 3*y.Bytes(), false)
	return out, nil
}

func kernelBiasAddGrad(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	gradOut := in[0]
	_, cols := kernels.RowsCols(gradOut.Shape())
	out := ctx.out(Shape{cols})
	if err := kernels.BiasAddGrad(out.f32, gradOut.f32, cols); err != nil {
		return nil, fmt.Errorf("tf: BiasAddGrad: %w", err)
	}
	ctx.charge(n, int64(len(gradOut.f32)), gradOut.Bytes(), true)
	return out, nil
}

// kernelMaxPoolGrad routes the gradient through the forward pool's
// cached argmax. The pool's geometry goes with it only when the pool
// read a tensor of x's shape; otherwise the kernel takes its checked
// scatter, since the argmax may index a larger tensor.
func kernelMaxPoolGrad(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	gradOut, x := in[0], in[1]
	cache, ok := ctx.extras[n.attrString("forward", "")].(poolCache)
	if !ok {
		return nil, fmt.Errorf("tf: MaxPoolGrad: forward cache for %q missing", n.attrString("forward", ""))
	}
	geo := cache.geo
	if s := x.Shape(); len(s) != 4 || s[0] != geo.N || s[1] != geo.H || s[2] != geo.W || s[3] != geo.C {
		geo = kernels.Geom{}
	}
	out := ctx.out(x.Shape())
	if err := kernels.MaxPoolGrad(out.f32, gradOut.f32, cache.argmax, geo); err != nil {
		return nil, fmt.Errorf("tf: MaxPoolGrad: %w", err)
	}
	ctx.charge(n, int64(len(cache.argmax)), gradOut.Bytes()+out.Bytes(), false)
	return out, nil
}

func kernelAvgPoolGrad(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	gradOut, x := in[0], in[1]
	geo, err := poolGeom(x, n)
	if err != nil {
		return nil, err
	}
	out := ctx.zeroed(x.Shape())
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

// conv2DGradGeom is conv2DGeom for the gradient kernels, which also index
// the gradient of the convolution's output.
func conv2DGradGeom(gradOut, x, filter *Tensor, n *Node) (kernels.Geom, error) {
	geo, err := conv2DGeom(x, filter, n)
	if err == nil && gradOut.NumElements() != geo.N*geo.OH*geo.OW*geo.F {
		err = fmt.Errorf("tf: %s: output gradient %v of a %dx%dx%dx%d convolution", n.op, gradOut.Shape(), geo.N, geo.OH, geo.OW, geo.F)
	}
	return geo, err
}

func kernelConv2DGradInput(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	gradOut, x, filter := in[0], in[1], in[2]
	geo, err := conv2DGradGeom(gradOut, x, filter, n)
	if err != nil {
		return nil, err
	}
	out := ctx.zeroed(x.Shape())
	kernels.Conv2DGradInputInto(out.f32, gradOut.f32, filter.f32, geo)
	ctx.charge(n, geo.ConvFLOPs(), gradOut.Bytes()+filter.Bytes()+out.Bytes(), false)
	return out, nil
}

func kernelConv2DGradFilter(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	gradOut, x, filter := in[0], in[1], in[2]
	geo, err := conv2DGradGeom(gradOut, x, filter, n)
	if err != nil {
		return nil, err
	}
	out := ctx.out(filter.Shape())
	kernels.Conv2DGradFilterInto(out.f32, gradOut.f32, x.f32, geo)
	ctx.charge(n, geo.ConvFLOPs(), gradOut.Bytes()+x.Bytes()+out.Bytes(), false)
	return out, nil
}

func kernelSoftmaxXentGrad(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	gradOut, logits, labels := in[0], in[1], in[2]
	rows, cols := kernels.RowsCols(logits.Shape())
	probs, ok := ctx.extras[n.attrString("forward", "")].([]float32)
	if !ok {
		// Recompute: the forward node may not have been cached (e.g. a
		// restored gradient graph).
		probs = ctx.sess.f32.get(rows*cols, false)
		if err := kernels.SoftmaxRows(probs, logits.f32, cols); err != nil {
			return nil, err
		}
	}
	out := ctx.out(logits.Shape())
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
	mask, ok := ctx.extras[n.attrString("forward", "")].([]float32)
	if !ok {
		// Inference (or forward not run in training mode): identity.
		return gradOut, nil
	}
	out := ctx.out(gradOut.Shape())
	for i, v := range gradOut.f32 {
		out.f32[i] = v * mask[i]
	}
	ctx.charge(n, int64(len(mask)), 3*gradOut.Bytes(), false)
	return out, nil
}
