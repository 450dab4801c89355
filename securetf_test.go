package securetf_test

import (
	"bytes"
	"sync"
	"testing"

	securetf "github.com/securetf/securetf"
)

// learnableDigits builds an in-memory MNIST-like set with a bright
// class-dependent row band, so small models genuinely learn it.
func learnableDigits(n int, seed int64) (*securetf.Tensor, *securetf.Tensor) {
	xs := securetf.RandNormal(securetf.Shape{n, 28, 28, 1}, 0.1, seed)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 10
		labels[i] = cls
		row := cls*2 + 4
		for x := 0; x < 28; x++ {
			xs.Floats()[(i*28+row)*28+x] += 1
		}
	}
	return xs, securetf.OneHot(labels, 10)
}

func newPlatform(t *testing.T, name string) *securetf.Platform {
	t.Helper()
	p, err := securetf.NewPlatform(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func launch(t *testing.T, kind securetf.RuntimeKind, image securetf.Image, mods ...func(*securetf.ContainerConfig)) *securetf.Container {
	t.Helper()
	cfg := securetf.ContainerConfig{
		Kind:     kind,
		Platform: newPlatform(t, "facade-node"),
		Image:    image,
		HostFS:   securetf.NewMemFS(),
	}
	for _, m := range mods {
		m(&cfg)
	}
	c, err := securetf.Launch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestTrainFreezeConvertClassify(t *testing.T) {
	c := launch(t, securetf.SconeSIM, securetf.TFLiteImage())
	xs, ys := learnableDigits(200, 1)

	var log bytes.Buffer
	trained, err := securetf.Train(securetf.TrainConfig{
		Container: c,
		Model:     securetf.NewMNISTMLP(1),
		XS:        xs, YS: ys,
		BatchSize: 50,
		Steps:     40,
		Optimizer: securetf.Adam{LR: 0.005},
		Log:       &log,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer trained.Close()
	acc, err := trained.Accuracy(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.6 {
		t.Fatalf("training accuracy %.2f, want >= 0.6 (learnable data)", acc)
	}
	if log.Len() == 0 {
		t.Fatal("no training log emitted")
	}

	frozen, err := trained.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	// Frozen model round trip through its wire format.
	blob, err := frozen.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := securetf.UnmarshalFrozenModel(blob)
	if err != nil {
		t.Fatal(err)
	}

	lite, err := restored.ConvertToLite(securetf.ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	classifier, err := securetf.NewClassifier(c, lite, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer classifier.Close()

	probe, wantLabels := learnableDigits(20, 7)
	classes, err := classifier.Classify(probe)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, cls := range classes {
		if wantLabels.Floats()[i*10+cls] == 1 {
			correct++
		}
	}
	if correct < 12 {
		t.Fatalf("lite classifier got %d/20 on held-out digits", correct)
	}
}

func TestQuantizedConversionAgrees(t *testing.T) {
	c := launch(t, securetf.NativeGlibc, securetf.Image{})
	xs, ys := learnableDigits(120, 3)
	trained, err := securetf.Train(securetf.TrainConfig{
		Model: securetf.NewMNISTMLP(3),
		XS:    xs, YS: ys,
		BatchSize: 40, Steps: 30,
		Optimizer: securetf.Adam{LR: 0.005},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer trained.Close()
	frozen, err := trained.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	full, err := frozen.ConvertToLite(securetf.ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	quant, err := frozen.ConvertToLite(securetf.ConvertOptions{Quantize: true})
	if err != nil {
		t.Fatal(err)
	}
	if quant.WeightBytes() >= full.WeightBytes()/2 {
		t.Fatalf("quantized weights %d not < half of float %d", quant.WeightBytes(), full.WeightBytes())
	}
	clFull, err := securetf.NewClassifier(c, full, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer clFull.Close()
	clQuant, err := securetf.NewClassifier(c, quant, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer clQuant.Close()

	probe, _ := learnableDigits(30, 9)
	a, err := clFull.Classify(probe)
	if err != nil {
		t.Fatal(err)
	}
	b, err := clQuant.Classify(probe)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i := range a {
		if a[i] == b[i] {
			agree++
		}
	}
	if agree < 24 {
		t.Fatalf("quantized model agrees on %d/30 classifications", agree)
	}
}

func TestSliceRows(t *testing.T) {
	x, err := securetf.TensorFromFloats(securetf.Shape{4, 2}, []float32{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	mid, err := securetf.SliceRows(x, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := mid.Floats(); got[0] != 2 || got[3] != 5 || len(got) != 4 {
		t.Fatalf("slice values %v", got)
	}
	for _, bad := range [][2]int{{-1, 2}, {0, 5}, {2, 2}, {3, 1}} {
		if _, err := securetf.SliceRows(x, bad[0], bad[1]); err == nil {
			t.Fatalf("slice [%d, %d) accepted", bad[0], bad[1])
		}
	}
	labels, err := securetf.TensorFromInts(securetf.Shape{3}, []int32{7, 8, 9})
	if err != nil {
		t.Fatal(err)
	}
	one, err := securetf.SliceRows(labels, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if one.Ints()[0] != 9 {
		t.Fatalf("int slice got %v", one.Ints())
	}
}

func TestTrainValidation(t *testing.T) {
	xs, ys := learnableDigits(10, 1)
	model := securetf.NewMNISTMLP(1)
	cases := []securetf.TrainConfig{
		{},
		{Model: model},
		{Model: model, XS: xs, YS: ys},
		{Model: model, XS: xs, YS: ys, BatchSize: 10},
	}
	for i, cfg := range cases {
		if _, err := securetf.Train(cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

func TestCASProvisionAndSecureService(t *testing.T) {
	// The §6.1 deployment shape through the public API only: a CAS, an
	// attested container with encrypted model storage, a TLS inference
	// service and a remote client.
	casPlat := newPlatform(t, "cas-node")
	workerPlat := newPlatform(t, "worker-node")
	clientPlat := newPlatform(t, "client-node")

	server, err := securetf.StartCAS(casPlat, securetf.NewMemFS(), workerPlat, clientPlat)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	host := securetf.NewMemFS()
	serviceC := launch(t, securetf.SconeHW, securetf.TFLiteImage(), func(cfg *securetf.ContainerConfig) {
		cfg.Platform = workerPlat
		cfg.HostFS = host
		cfg.FSShieldRules = []securetf.Rule{securetf.EncryptPrefix("volumes/models/")}
	})
	client, err := securetf.NewCASClient(serviceC, server, casPlat, workerPlat)
	if err != nil {
		t.Fatal(err)
	}
	volKey := make([]byte, 32)
	session := &securetf.Session{
		Name:         "svc",
		OwnerToken:   "tok",
		Measurements: []string{serviceC.Enclave().Measurement().Hex()},
		Volumes:      map[string][]byte{"models": volKey},
		Services:     []string{"classifier", "localhost", "127.0.0.1"},
	}
	if err := client.Register(session); err != nil {
		t.Fatal(err)
	}
	prov, timing, err := serviceC.Provision(client, "svc", "models")
	if err != nil {
		t.Fatal(err)
	}
	if prov.Identity == nil {
		t.Fatal("no TLS identity provisioned")
	}
	if timing.Total() <= 0 {
		t.Fatal("attestation charged no time")
	}
	if !serviceC.NetShielded() {
		t.Fatal("network shield inactive after provisioning")
	}

	// Train a small model and store it under the encrypted volume.
	xs, ys := learnableDigits(150, 5)
	trained, err := securetf.Train(securetf.TrainConfig{
		Container: serviceC, Model: securetf.NewMNISTMLP(5),
		XS: xs, YS: ys, BatchSize: 50, Steps: 30,
		Optimizer: securetf.Adam{LR: 0.005},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer trained.Close()
	frozen, err := trained.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	lite, err := frozen.ConvertToLite(securetf.ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := securetf.WriteFile(serviceC.FS(), "volumes/models/m.tflite", lite.Marshal()); err != nil {
		t.Fatal(err)
	}
	// The host must not see plaintext model bytes.
	hostBytes, err := securetf.ReadFile(host, "volumes/models/m.tflite")
	if err != nil {
		t.Fatalf("host copy missing: %v", err)
	}
	if bytes.Contains(hostBytes, lite.Marshal()[:64]) {
		t.Fatal("model stored in plaintext on the host")
	}

	stored, err := securetf.ReadFile(serviceC.FS(), "volumes/models/m.tflite")
	if err != nil {
		t.Fatal(err)
	}
	model, err := securetf.UnmarshalLiteModel(stored)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := securetf.ServeModels(serviceC, securetf.ModelServerConfig{
		Addr:          "127.0.0.1:0",
		ServingConfig: securetf.ServingConfig{Replicas: 1, Threads: 1, QueueCap: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.Register(securetf.DefaultModelName, 1, model); err != nil {
		t.Fatal(err)
	}

	// A non-provisioned client lacks the CAS CA pool and client
	// identity, so it must not reach the shielded service.
	clientC := launch(t, securetf.NativeGlibc, securetf.Image{}, func(cfg *securetf.ContainerConfig) {
		cfg.Platform = clientPlat
	})
	if cl, err := securetf.DialModelServer(clientC, securetf.ModelClientConfig{
		Addr: svc.Addr(), ServerName: "classifier",
	}); err == nil {
		if _, err := cl.Classify("", securetf.RandNormal(securetf.Shape{1, 28, 28, 1}, 1, 1)); err == nil {
			t.Fatal("unauthenticated client reached the shielded service")
		}
		cl.Close()
	}

	// An attested client (same image → admitted by the session policy)
	// receives the CA pool and identity, and classifies successfully
	// over mutual TLS.
	attested := launch(t, securetf.SconeHW, securetf.TFLiteImage(), func(cfg *securetf.ContainerConfig) {
		cfg.Platform = clientPlat
	})
	attestedCAS, err := securetf.NewCASClient(attested, server, casPlat, clientPlat)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := attested.Provision(attestedCAS, "svc", "models"); err != nil {
		t.Fatal(err)
	}
	cl, err := securetf.DialModelServer(attested, securetf.ModelClientConfig{
		Addr: svc.Addr(), ServerName: "classifier",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	probe2, _ := learnableDigits(4, 21)
	classes, err := cl.Classify("", probe2)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 4 {
		t.Fatalf("classified %d rows over TLS", len(classes))
	}
	if svc.Served() == 0 {
		t.Fatal("service reports zero served requests")
	}
}

func TestDistributedTrainingFacade(t *testing.T) {
	const workers = 2
	psC := launch(t, securetf.SconeSIM, securetf.TensorFlowImage())
	ref := securetf.NewMNISTCNN(1)
	ps, addr, err := securetf.StartParameterServer(psC, "127.0.0.1:0", securetf.InitialVariables(ref), workers, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()

	var wg sync.WaitGroup
	losses := make([]float64, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := launch(t, securetf.SconeSIM, securetf.TensorFlowImage())
			xs, ys := learnableDigits(80, int64(100+w))
			worker, err := securetf.StartTrainingWorker(c, securetf.WorkerSpec{
				ID: w, Addrs: []string{addr.String()},
				Model: securetf.NewMNISTCNN(1),
				XS:    xs, YS: ys, BatchSize: 40,
			})
			if err != nil {
				errs[w] = err
				return
			}
			defer worker.Close()
			if err := worker.RunSteps(2); err != nil {
				errs[w] = err
				return
			}
			losses[w] = worker.LastLoss
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if ps.Rounds() != 2 {
		t.Fatalf("parameter server completed %d rounds, want 2", ps.Rounds())
	}
	for w, loss := range losses {
		if loss <= 0 || loss > 10 {
			t.Fatalf("worker %d loss %v out of range", w, loss)
		}
	}
}

func TestDatasetFacade(t *testing.T) {
	fs := securetf.NewMemFS()
	if err := securetf.GenerateMNIST(fs, "mnist", 64, 16, 1); err != nil {
		t.Fatal(err)
	}
	xs, ys, err := securetf.LoadMNIST(fs, "mnist/train-images-idx3-ubyte", "mnist/train-labels-idx1-ubyte")
	if err != nil {
		t.Fatal(err)
	}
	if !xs.Shape().Equal(securetf.Shape{64, 28, 28, 1}) || !ys.Shape().Equal(securetf.Shape{64, 10}) {
		t.Fatalf("MNIST shapes %v / %v", xs.Shape(), ys.Shape())
	}
	if err := securetf.GenerateCIFAR10(fs, "cifar", 32, 1, 1); err != nil {
		t.Fatal(err)
	}
	cx, cy, err := securetf.LoadCIFAR10(fs, "cifar/data_batch_1.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !cx.Shape().Equal(securetf.Shape{32, 32, 32, 3}) || !cy.Shape().Equal(securetf.Shape{32, 10}) {
		t.Fatalf("CIFAR shapes %v / %v", cx.Shape(), cy.Shape())
	}
	if len(securetf.CIFARLabels()) != 10 {
		t.Fatal("CIFAR labels")
	}
}

func TestPaperModelFacade(t *testing.T) {
	specs := securetf.PaperModels()
	if len(specs) != 3 {
		t.Fatalf("paper models: %d", len(specs))
	}
	small := securetf.ModelSpec{Name: "tiny", FileBytes: 1 << 20, GFLOPs: 0.01, InputDim: 64, Classes: 10}
	m := securetf.BuildInferenceModel(small)
	cl, err := securetf.NewClassifier(nil, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	classes, err := cl.Classify(securetf.RandomImageInput(small, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 3 {
		t.Fatalf("classified %d rows", len(classes))
	}
}
