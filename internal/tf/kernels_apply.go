package tf

import (
	"fmt"
	"math"

	"github.com/securetf/securetf/internal/tf/kernels"
)

// Optimizer apply kernels mutate session variable state in place and
// return the updated tensor. The variable node is input 0 and the
// gradient, of its shape, input 1.

func applyTarget(ctx *execCtx, n *Node) (string, *Tensor, error) {
	name := n.inputs[0].name
	v, ok := ctx.sess.vars[name]
	if !ok {
		return "", nil, fmt.Errorf("tf: %s: unknown variable %q", n.op, name)
	}
	return name, v, nil
}

func kernelApplySGD(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	_, v, err := applyTarget(ctx, n)
	if err != nil {
		return nil, err
	}
	kernels.ApplySGD(v.f32, in[1].f32, float32(attr(n, "lr", 0.01)))
	ctx.charge(n, 2*int64(len(v.f32)), 3*v.Bytes(), false)
	return v, nil
}

func kernelApplyMomentum(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	name, v, err := applyTarget(ctx, n)
	if err != nil {
		return nil, err
	}
	grad := in[1]
	lr := float32(attr(n, "lr", 0.01))
	mom := float32(attr(n, "momentum", 0.9))
	velocity := ctx.sess.slot(name+"/momentum", v)
	for i, g := range grad.f32 {
		velocity.f32[i] = float32(mom*velocity.f32[i]) + g
		v.f32[i] -= float32(lr * velocity.f32[i])
	}
	ctx.charge(n, 4*int64(len(v.f32)), 4*v.Bytes(), false)
	return v, nil
}

func kernelApplyAdam(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	name, v, err := applyTarget(ctx, n)
	if err != nil {
		return nil, err
	}
	grad := in[1]
	lr := attr(n, "lr", 0.001)
	beta1 := attr(n, "beta1", 0.9)
	beta2 := attr(n, "beta2", 0.999)
	eps := attr(n, "eps", 1e-8)

	m := ctx.sess.slot(name+"/adam_m", v)
	vv := ctx.sess.slot(name+"/adam_v", v)
	ctx.sess.steps[name]++
	t := float64(ctx.sess.steps[name])
	correction := lr * math.Sqrt(1-math.Pow(beta2, t)) / (1 - math.Pow(beta1, t))

	for i, g := range grad.f32 {
		gd := float64(g)
		md := float64(float64(m.f32[i])*beta1) + float64(gd*(1-beta1))
		vd := float64(float64(vv.f32[i])*beta2) + float64(gd*gd*(1-beta2))
		m.f32[i] = float32(md)
		vv.f32[i] = float32(vd)
		v.f32[i] -= float32(correction * md / (math.Sqrt(vd) + eps))
	}
	ctx.charge(n, 10*int64(len(v.f32)), 5*v.Bytes(), false)
	return v, nil
}
