package suite

import (
	"bytes"
	"net"
	"time"

	securetf "github.com/securetf/securetf"
	"github.com/securetf/securetf/internal/serving"
	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/tf/dist"
	"github.com/securetf/securetf/internal/tflite"
)

// Probes of the ML layers: datasets, the two engines, distributed
// training, serving and the router.

func (p *prober) datasets() error {
	fsys := securetf.NewMemFS()
	t, err := p.sample("datasets", "GenerateMNIST", nil, func() error {
		return securetf.GenerateMNIST(fsys, "d", trainImages, 0, p.opts.Seed)
	})
	if err != nil {
		return err
	}
	p.add("datasets.mnist_generate_ms", "ms", ms(t.wall))
	if t, err = p.sample("datasets", "LoadMNIST", nil, func() error {
		_, _, err := securetf.LoadMNIST(fsys, "d/train-images-idx3-ubyte", "d/train-labels-idx1-ubyte")
		return err
	}); err != nil {
		return err
	}
	p.add("datasets.mnist_load_ms", "ms", ms(t.wall))
	return nil
}

// tflite: the interpreter on densenet at one row (serve-steady's op) and
// on the MNIST MLP at a full micro-batch (serve-fleet's OCR step).
func (p *prober) tflite() error {
	spec := securetf.PaperModels()[0]
	blob := securetf.BuildInferenceModel(spec).Marshal()
	var model *tflite.Model
	t, err := p.sample("tflite", "Unmarshal", nil, func() error {
		var err error
		model, err = tflite.Unmarshal(blob)
		return err
	})
	if err != nil {
		return err
	}
	p.add("tflite.unmarshal_ms", "ms", ms(t.wall))

	clock := p.server.Clock()
	if t, err = p.sample("tflite", "AllocateTensors", clock, func() error {
		ip, err := tflite.NewInterpreter(model, tflite.WithDevice(p.server.Device(0)))
		if err != nil {
			return err
		}
		defer ip.Close()
		return ip.AllocateTensors()
	}); err != nil {
		return err
	}
	p.add("tflite.allocate_ms", "ms", ms(t.wall))
	p.add("tflite.allocate_alloc_mb", "MiB", t.alloc/mib)

	invoke := func(model *tflite.Model, input *securetf.Tensor, name string) (timing, securetf.EnclaveStats, int, error) {
		ip, err := tflite.NewInterpreter(model, tflite.WithDevice(p.server.Device(0)))
		if err != nil {
			return timing{}, securetf.EnclaveStats{}, 0, err
		}
		defer ip.Close()
		if err := ip.AllocateTensors(); err != nil {
			return timing{}, securetf.EnclaveStats{}, 0, err
		}
		before := p.server.EnclaveStats()
		calls := 0
		t, err := p.sample("tflite", name, clock, func() error {
			calls++
			if err := ip.SetInput(0, input); err != nil {
				return err
			}
			if err := ip.Invoke(); err != nil {
				return err
			}
			_, err := ip.Output(0)
			return err
		})
		return t, statsDelta(p.server.EnclaveStats(), before), calls, err
	}
	t, stats, calls, err := invoke(model, securetf.RandomImageInput(spec, 1, p.opts.Seed), "Invoke/densenet-b1")
	if err != nil {
		return err
	}
	p.add("tflite.invoke_b1_ms", "ms", ms(t.wall))
	p.add("tflite.invoke_b1_vms", "vms", ms(t.virt))
	p.add("tflite.invoke_b1_alloc_kb", "KiB", t.alloc/1024)
	p.add("tflite.invoke_b1_gflops", "GFLOP", float64(stats.ComputeFLOPs)/float64(calls)/1e9)

	frozen, err := freezeMLP()
	if err != nil {
		return err
	}
	batch := securetf.RandNormal(securetf.Shape{fleetMaxBatch, 28, 28, 1}, 1, p.opts.Seed)
	if t, _, _, err = invoke(frozen, batch, "Invoke/mlp-b16"); err != nil {
		return err
	}
	p.add("tflite.invoke_mlp_b16_ms", "ms", ms(t.wall))
	p.add("tflite.invoke_mlp_b16_vms", "vms", ms(t.virt))
	return nil
}

// freezeMLP converts the untrained MNIST MLP to a Lite model.
func freezeMLP() (*tflite.Model, error) {
	m, err := securetf.OpenModel(nil, securetf.NewMNISTMLP(fedModelSeed), nil, 0, 0)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	frozen, err := m.Freeze()
	if err != nil {
		return nil, err
	}
	return frozen.ConvertToLite(securetf.ConvertOptions{})
}

// tf: one training step of each model the workloads train, the tensor
// codec on a push-sized tensor, and the variable checkpoint codec.
func (p *prober) tf() error {
	xs, ys, err := mnist(nil, 0, trainBatch, 0, p.opts.Seed, false)
	if err != nil {
		return err
	}
	// Training nodes run the full TensorFlow image, whose 87 MB binary
	// nearly fills the EPC: a step there pages, and the probe must too.
	platform, err := securetf.NewPlatform("probe-tf")
	if err != nil {
		return err
	}
	node, err := securetf.Launch(securetf.ContainerConfig{
		Kind: securetf.SconeHW, Platform: platform, Image: securetf.TensorFlowImage(), HostFS: securetf.NewMemFS(),
	})
	if err != nil {
		return err
	}
	defer node.Close()
	clock := node.Clock()
	cnn, err := securetf.OpenModel(node, securetf.NewMNISTCNN(trainModelSeed), securetf.SGD{LR: trainLR}, 0, 0)
	if err != nil {
		return err
	}
	defer cnn.Close()
	t, err := p.sample("tf", "Session.Run/cnn-b50", clock, func() error {
		return cnn.TrainMore(xs, ys, trainBatch, 1)
	})
	if err != nil {
		return err
	}
	p.add("tf.train_step_ms", "ms", ms(t.wall))
	p.add("tf.train_step_vms", "vms", ms(t.virt))
	p.add("tf.train_step_alloc_mb", "MiB", t.alloc/mib)

	mlp, err := securetf.OpenModel(nil, securetf.NewMNISTMLP(fedModelSeed), securetf.SGD{LR: fedLR}, 0, 0)
	if err != nil {
		return err
	}
	defer mlp.Close()
	if t, err = p.sample("tf", "Session.Run/mlp-b20", nil, func() error {
		return mlp.TrainMore(xs, ys, fedBatch, 1)
	}); err != nil {
		return err
	}
	p.add("tf.mlp_step_ms", "ms", ms(t.wall))

	vars := securetf.InitialVariables(securetf.NewMNISTCNN(trainModelSeed))
	var big *securetf.Tensor
	for _, v := range vars {
		if big == nil || v.Bytes() > big.Bytes() {
			big = v
		}
	}
	var enc []byte
	if t, err = p.sample("tf", "EncodeTensor", nil, func() error {
		enc = tf.EncodeTensor(big)
		return nil
	}); err != nil {
		return err
	}
	p.add("tf.encode_tensor_mb_per_s", "MiB/s", mbPerS(len(enc), t.wall))
	if t, err = p.sample("tf", "DecodeTensor", nil, func() error {
		_, err := tf.DecodeTensor(enc)
		return err
	}); err != nil {
		return err
	}
	p.add("tf.decode_tensor_mb_per_s", "MiB/s", mbPerS(len(enc), t.wall))
	if t, err = p.sample("tf", "EncodeVarCheckpoint", nil, func() error {
		tf.EncodeVarCheckpoint(vars)
		return nil
	}); err != nil {
		return err
	}
	p.add("tf.ckpt_encode_ms", "ms", ms(t.wall))
	return nil
}

// dist: one push-sized message over a shielded pair, Send to Receive.
func (p *prober) dist() error {
	// The larger shard's partition: the push that sets the round's time.
	all := securetf.InitialVariables(securetf.NewMNISTCNN(trainModelSeed))
	var vars map[string]*securetf.Tensor
	var size int64
	for s := 0; s < trainShards; s++ {
		part, n := dist.ShardVars(all, s, trainShards), int64(0)
		for _, v := range part {
			n += v.Bytes()
		}
		if n > size {
			vars, size = part, n
		}
	}
	params := p.client.Params()
	return p.shieldedPair(func(c net.Conn) {
		for {
			if _, err := dist.Receive(c, p.server.Clock(), params); err != nil {
				return
			}
			if _, err := dist.Send(c, p.server.Clock(), params, &dist.Message{Kind: dist.MsgAck}); err != nil {
				return
			}
		}
	}, func(c net.Conn) error {
		t, err := p.sample("dist", "Send+Receive", p.client.Clock(), func() error {
			if _, err := dist.Send(c, p.client.Clock(), params, &dist.Message{Kind: dist.MsgAck, Vars: vars}); err != nil {
				return err
			}
			_, err := dist.Receive(c, p.client.Clock(), params)
			return err
		})
		p.add("dist.send_recv_ms", "ms", ms(t.wall))
		p.add("dist.send_recv_vms", "vms", ms(t.virt))
		return err
	})
}

// noopStage is a softmax and one matrix multiply down to 11 classes, fed
// a request of the workload's own size: a round trip through it costs
// everything but the kernel.
func (p *prober) noopStage() (*securetf.LiteModel, *securetf.Tensor, error) {
	rows, width := 1, securetf.PaperModels()[0].InputDim
	if p.opts.Workload == "serve-fleet" {
		rows, width = fleetDocRows, securetf.MNISTSize*securetf.MNISTSize
	}
	m, err := fleetStage(width, fleetMaskCls+1, true, func(i, j int) float32 {
		if i == j {
			return 1
		}
		return 0
	})
	return m, securetf.RandNormal(securetf.Shape{rows, width}, 1, p.opts.Seed), err
}

// serving: the wire codec on a buffer, and a client↔gateway round trip
// on a model with no kernel to speak of, both at the workload's request
// size.
func (p *prober) serving() error {
	stage, input, err := p.noopStage()
	if err != nil {
		return err
	}
	req := serving.WireRequest{Model: "noop", Input: input}
	var buf bytes.Buffer
	t, err := p.sample("serving", "wire", nil, func() error {
		buf.Reset()
		if err := serving.WriteRequest(&buf, req); err != nil {
			return err
		}
		got, err := serving.ReadRequest(&buf)
		if err != nil {
			return err
		}
		if err := serving.WriteResponse(&buf, serving.WireResponse{Status: serving.StatusOK, Version: 1, Output: got.Input}); err != nil {
			return err
		}
		_, err = serving.ReadResponse(&buf)
		return err
	})
	if err != nil {
		return err
	}
	p.add("serving.wire_rt_us", "us", us(t.wall))

	gw, conn, err := p.noopGateway(stage)
	if err != nil {
		return err
	}
	defer gw.Close()
	defer conn.Close()
	if t, err = p.sample("serving", "Infer/noop", p.server.Clock(), func() error {
		_, _, err := conn.Infer("noop", 0, input)
		return err
	}); err != nil {
		return err
	}
	p.add("serving.noop_rt_ms", "ms", ms(t.wall))
	p.add("serving.noop_rt_vms", "vms", ms(t.virt))
	return nil
}

// noopGateway serves the no-op stage on the replay's server node and
// dials it from the client node.
func (p *prober) noopGateway(stage *securetf.LiteModel) (*securetf.ModelServer, *securetf.ModelClient, error) {
	gw, err := securetf.ServeModels(p.server, securetf.ModelServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		return nil, nil, err
	}
	if err := gw.Register("noop", 1, stage); err != nil {
		gw.Close()
		return nil, nil, err
	}
	conn, err := securetf.DialModelServer(p.client, securetf.ModelClientConfig{Addr: gw.Addr(), ServerName: "gateway"})
	if err != nil {
		gw.Close()
		return nil, nil, err
	}
	return gw, conn, nil
}

// router: what one hop through the router adds to a round trip — the
// routed single-model request minus the direct one.
func (p *prober) router() error {
	stage, input, err := p.noopStage()
	if err != nil {
		return err
	}
	gw, direct, err := p.noopGateway(stage)
	if err != nil {
		return err
	}
	defer gw.Close()
	defer direct.Close()
	routerC, err := p.cl.node("probe-router", securetf.ContainerConfig{})
	if err != nil {
		return err
	}
	rt, err := securetf.ServeRouter(routerC, securetf.RouterConfig{
		Addr:  "127.0.0.1:0",
		Nodes: []securetf.RouterNode{{Name: "probe-server", Addr: gw.Addr(), ServerName: "gateway", Models: []string{"noop"}}},
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	routed, err := securetf.DialRouter(p.client, securetf.RouterClientConfig{
		Addr: rt.Addr(), ServerName: "router", ExpectModels: []string{"noop"},
	})
	if err != nil {
		return err
	}
	defer routed.Close()
	d, err := p.sample("router", "Infer/direct", routerC.Clock(), func() error {
		_, _, err := direct.Infer("noop", 0, input)
		return err
	})
	if err != nil {
		return err
	}
	var virts []time.Duration
	r, err := p.sample("router", "Infer/routed", routerC.Clock(), func() error {
		_, _, virt, err := routed.InferTimed("noop", 0, input)
		virts = append(virts, virt)
		return err
	})
	if err != nil {
		return err
	}
	p.add("router.hop_ms", "ms", ms(r.wall-d.wall))
	// The router's clock pays the whole routed request; the node's share
	// is the service time it reported back.
	p.add("router.hop_vms", "vms", ms(r.virt-median(virts)))
	return nil
}
