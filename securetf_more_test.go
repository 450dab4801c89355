package securetf_test

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	securetf "github.com/securetf/securetf"
)

func TestPlatformKeyPEMRoundTrip(t *testing.T) {
	a := newPlatform(t, "node-a")
	b := newPlatform(t, "node-b")
	var blob []byte
	for _, p := range []*securetf.Platform{a, b} {
		pemData, err := securetf.MarshalPlatformKey(p)
		if err != nil {
			t.Fatal(err)
		}
		blob = append(blob, pemData...)
	}
	// Unrelated PEM blocks must be skipped.
	blob = append(blob, []byte("-----BEGIN CERTIFICATE-----\nAAAA\n-----END CERTIFICATE-----\n")...)
	keys, err := securetf.ParsePlatformKeys(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 {
		t.Fatalf("parsed %d keys", len(keys))
	}
	for _, p := range []*securetf.Platform{a, b} {
		key, ok := keys[p.Name()]
		if !ok || !key.Equal(p.AttestationKey()) {
			t.Fatalf("key for %s missing or wrong", p.Name())
		}
	}
}

func TestParsePlatformKeysErrors(t *testing.T) {
	if _, err := securetf.ParsePlatformKeys(nil); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := securetf.ParsePlatformKeys([]byte("junk")); err == nil {
		t.Fatal("non-PEM input accepted")
	}
	// A platform-key block without a name header must be rejected.
	p := newPlatform(t, "node")
	pemData, err := securetf.MarshalPlatformKey(p)
	if err != nil {
		t.Fatal(err)
	}
	stripped := bytes.Replace(pemData, []byte("platform: node\n"), nil, 1)
	if _, err := securetf.ParsePlatformKeys(stripped); err == nil {
		t.Fatal("nameless platform key accepted")
	}
}

func TestParseMeasurement(t *testing.T) {
	c := launch(t, securetf.SconeHW, securetf.TFLiteImage())
	hex := c.Enclave().Measurement().Hex()
	m, err := securetf.ParseMeasurement(hex)
	if err != nil {
		t.Fatal(err)
	}
	if m != c.Enclave().Measurement() {
		t.Fatal("measurement round trip mismatch")
	}
	for _, bad := range []string{"", "zz", hex[:10], hex + "00"} {
		if _, err := securetf.ParseMeasurement(bad); err == nil {
			t.Fatalf("bad measurement %q accepted", bad)
		}
	}
}

func TestCrossProcessStyleAttestation(t *testing.T) {
	// The securetf-worker cas + serve wiring, in-process: explicit
	// trust store, address-only CAS connection.
	casPlat := newPlatform(t, "cas-platform")
	workerPlat := newPlatform(t, "worker-platform")
	trustPEM, err := securetf.MarshalPlatformKey(casPlat)
	if err != nil {
		t.Fatal(err)
	}
	workerPEM, err := securetf.MarshalPlatformKey(workerPlat)
	if err != nil {
		t.Fatal(err)
	}
	trust, err := securetf.ParsePlatformKeys(append(trustPEM, workerPEM...))
	if err != nil {
		t.Fatal(err)
	}

	server, err := securetf.StartCASWithTrust(casPlat, securetf.NewMemFS(), "127.0.0.1:0", trust)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	c := launch(t, securetf.SconeHW, securetf.TFLiteImage(), func(cfg *securetf.ContainerConfig) {
		cfg.Platform = workerPlat
	})
	client, err := securetf.NewCASClientAt(c, server.Addr(), server.Measurement().Hex(), trust)
	if err != nil {
		t.Fatal(err)
	}
	session := &securetf.Session{
		Name:         "xproc",
		OwnerToken:   "tok",
		Measurements: []string{c.Enclave().Measurement().Hex()},
		Secrets:      map[string][]byte{"k": []byte("v")},
	}
	if err := client.Register(session); err != nil {
		t.Fatal(err)
	}
	prov, timing, err := c.Provision(client, "xproc", "")
	if err != nil {
		t.Fatal(err)
	}
	if string(prov.Secrets["k"]) != "v" {
		t.Fatal("secret not provisioned")
	}
	if timing.Total() <= 0 {
		t.Fatal("no attestation time charged")
	}

	// Address-only connection with a wrong expected measurement must be
	// rejected before anything is trusted.
	wrong := launch(t, securetf.SconeHW, securetf.TensorFlowImage(), func(cfg *securetf.ContainerConfig) {
		cfg.Platform = workerPlat
	})
	if _, err := securetf.NewCASClientAt(wrong, server.Addr(), wrong.Enclave().Measurement().Hex(), trust); err == nil {
		t.Fatal("client trusted a CAS with the wrong measurement")
	}
	// Native containers cannot attest.
	native := launch(t, securetf.NativeGlibc, securetf.Image{})
	if _, err := securetf.NewCASClientAt(native, server.Addr(), server.Measurement().Hex(), trust); err == nil {
		t.Fatal("native container attested")
	}
}

func TestFederatedPrimitives(t *testing.T) {
	// Variables / SetVariables / Checkpoint / RestoreCheckpoint — the
	// §6.2 federated-learning building blocks.
	xs, ys := learnableDigits(100, 11)
	a, err := securetf.OpenModel(nil, securetf.NewMNISTMLP(11), securetf.Adam{LR: 0.005}, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.TrainMore(xs, ys, 50, 20); err != nil {
		t.Fatal(err)
	}
	if a.LastLoss() <= 0 {
		t.Fatal("no loss recorded")
	}
	vars, err := a.Variables()
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) == 0 {
		t.Fatal("no variables")
	}

	// A fresh replica given a's variables must classify identically.
	b, err := securetf.OpenModel(nil, securetf.NewMNISTMLP(12), nil, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.SetVariables(vars); err != nil {
		t.Fatal(err)
	}
	accA, err := a.Accuracy(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	accB, err := b.Accuracy(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if accA != accB {
		t.Fatalf("replica accuracy %v != original %v", accB, accA)
	}

	// Checkpoint round trip restores the same state after divergence.
	ckpt := a.Checkpoint()
	if err := a.TrainMore(xs, ys, 50, 5); err != nil {
		t.Fatal(err)
	}
	if err := a.RestoreCheckpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	accRestored, err := a.Accuracy(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if accRestored != accA {
		t.Fatalf("restored accuracy %v != checkpointed %v", accRestored, accA)
	}

	if err := a.SetVariables(map[string]*securetf.Tensor{"no-such-var": securetf.Scalar(1)}); err == nil {
		t.Fatal("unknown variable accepted")
	}
}

func TestOpenModelValidation(t *testing.T) {
	if _, err := securetf.OpenModel(nil, securetf.Model{}, nil, 0, 0); err == nil {
		t.Fatal("empty model accepted")
	}
	m, err := securetf.OpenModel(nil, securetf.NewMNISTMLP(1), nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	xs, ys := learnableDigits(20, 1)
	for _, c := range []struct{ batch, steps int }{{0, 1}, {1, 0}, {-1, 1}} {
		if err := m.TrainMore(xs, ys, c.batch, c.steps); err == nil {
			t.Fatalf("TrainMore(%d, %d) accepted", c.batch, c.steps)
		}
	}
	if err := m.TrainMore(nil, ys, 1, 1); err == nil {
		t.Fatal("nil inputs accepted")
	}
}

// TestDataShardValidation: the three ways a data shard reaches a
// trainer — a training worker, a federated client, TrainMore — refuse
// the same malformed shards with an error, before anything is dialed.
// (A scalar used to panic in all three; only the worker compared rows.)
func TestDataShardValidation(t *testing.T) {
	xs, ys := learnableDigits(8, 1)
	empty := func(shape securetf.Shape) *securetf.Tensor {
		e, err := securetf.TensorFromFloats(shape, nil)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	shorter, err := securetf.SliceRows(ys, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	shards := []struct {
		name   string
		xs, ys *securetf.Tensor
		batch  int
	}{
		{"scalar inputs", securetf.Scalar(1), ys, 4},
		{"scalar labels", xs, securetf.Scalar(1), 4},
		{"fewer labels than inputs", xs, shorter, 4},
		{"no examples", empty(securetf.Shape{0, 28, 28, 1}), empty(securetf.Shape{0, 10}), 4},
		{"no inputs", nil, ys, 4},
		{"zero batch", xs, ys, 0},
	}
	c := launch(t, securetf.SconeSIM, securetf.TensorFlowImage())
	trained, err := securetf.OpenModel(nil, securetf.NewMNISTMLP(1), nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer trained.Close()
	const nobody = "127.0.0.1:1"
	entries := map[string]func(xs, ys *securetf.Tensor, batch int) error{
		"StartTrainingWorker": func(xs, ys *securetf.Tensor, batch int) error {
			_, err := securetf.StartTrainingWorker(c, securetf.WorkerSpec{
				Addrs: []string{nobody}, Model: securetf.NewMNISTMLP(1), XS: xs, YS: ys, BatchSize: batch})
			return err
		},
		"StartFederatedClient": func(xs, ys *securetf.Tensor, batch int) error {
			_, err := securetf.StartFederatedClient(c, securetf.FederatedPeerSpec{
				Addr: nobody, Model: securetf.NewMNISTMLP(1), XS: xs, YS: ys, BatchSize: batch,
				LocalSteps: 1, LocalLR: 0.1, Population: 1, Secret: []byte("cohort")})
			return err
		},
		"TrainMore": func(xs, ys *securetf.Tensor, batch int) error {
			return trained.TrainMore(xs, ys, batch, 1)
		},
	}
	for entry, start := range entries {
		for _, sh := range shards {
			err := start(sh.xs, sh.ys, sh.batch)
			if err == nil || strings.Contains(err.Error(), "dial") {
				t.Errorf("%s, %s: got %v, want the shard refused", entry, sh.name, err)
			}
		}
	}
}

func TestCIFARModelTrains(t *testing.T) {
	fs := securetf.NewMemFS()
	if err := securetf.GenerateCIFAR10(fs, "cifar", 128, 1, 3); err != nil {
		t.Fatal(err)
	}
	xs, ys, err := securetf.LoadCIFAR10(fs, "cifar/data_batch_1.bin")
	if err != nil {
		t.Fatal(err)
	}
	trained, err := securetf.Train(securetf.TrainConfig{
		Model: securetf.NewCIFARCNN(3),
		XS:    xs, YS: ys,
		BatchSize: 32, Steps: 8,
		Optimizer: securetf.Adam{LR: 0.003},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer trained.Close()
	if trained.LastLoss() <= 0 || trained.LastLoss() > 10 {
		t.Fatalf("loss %v out of range", trained.LastLoss())
	}
}

func TestQuantizedPaperModel(t *testing.T) {
	spec := securetf.ModelSpec{Name: "mini", FileBytes: 2 << 20, GFLOPs: 0.02, InputDim: 96, Classes: 10}
	quant, err := securetf.BuildQuantizedInferenceModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	full := securetf.BuildInferenceModel(spec)
	if quant.WeightBytes() >= full.WeightBytes()/2 {
		t.Fatalf("quantized %d not well below float %d", quant.WeightBytes(), full.WeightBytes())
	}
	cl, err := securetf.NewClassifier(nil, quant, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	out, err := cl.Run(securetf.RandomImageInput(spec, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Shape().Equal(securetf.Shape{2, 10}) {
		t.Fatalf("output shape %v", out.Shape())
	}
}

func TestConfigHelpers(t *testing.T) {
	params := securetf.DefaultParams()
	if params.EPCSize != 94<<20 {
		t.Fatalf("default EPC %d", params.EPCSize)
	}
	params.EPCSize = 256 << 20
	p, err := securetf.NewPlatformWithParams("big-epc", params)
	if err != nil {
		t.Fatal(err)
	}
	if p.Params().EPCSize != 256<<20 {
		t.Fatal("params not applied")
	}

	img := securetf.SyntheticImage("app", 3<<20, 1<<20)
	if img.Size() != 3<<20 || img.HeapSize != 1<<20 {
		t.Fatalf("synthetic image %d/%d", img.Size(), img.HeapSize)
	}
	// Same name+size → same measurement: separate processes agree on
	// the session policy (the cmd/securetf-worker requirement).
	img2 := securetf.SyntheticImage("app", 3<<20, 1<<20)
	if !bytes.Equal(img.Content, img2.Content) {
		t.Fatal("synthetic image content not deterministic")
	}

	for _, tc := range []struct {
		rule securetf.Rule
		want string
	}{
		{securetf.EncryptPrefix("a/"), "a/"},
		{securetf.AuthenticatePrefix("b/"), "b/"},
		{securetf.PassthroughPrefix("c/"), "c/"},
	} {
		if tc.rule.Prefix != tc.want {
			t.Fatalf("rule prefix %q", tc.rule.Prefix)
		}
	}

	key, err := securetf.NewVolumeKey()
	if err != nil {
		t.Fatal(err)
	}
	again, err := securetf.VolumeKeyFromBytes(key[:])
	if err != nil {
		t.Fatal(err)
	}
	if *again != *key {
		t.Fatal("volume key round trip")
	}
	if _, err := securetf.VolumeKeyFromBytes([]byte("short")); err == nil {
		t.Fatal("short key accepted")
	}

	if keys := securetf.TrustedKeys(newPlatform(t, "x")); len(keys) != 1 {
		t.Fatalf("trusted keys %d", len(keys))
	}
}

func TestEnclaveStats(t *testing.T) {
	c := launch(t, securetf.SconeHW, securetf.TFLiteImage())
	if err := securetf.WriteFile(c.FS(), "f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	stats := c.EnclaveStats()
	if stats.AsyncSyscalls == 0 {
		t.Fatal("SCONE file I/O reported no async syscalls")
	}
	native := launch(t, securetf.NativeGlibc, securetf.Image{})
	if native.EnclaveStats() != (securetf.EnclaveStats{}) {
		t.Fatal("native container reported enclave counters")
	}
}

// TestDirFSContainer runs containers over a real directory: a plain
// file round-trips, and a file under an EncryptPrefix rule reaches the
// disk as ciphertext beside its .sfsmeta, which a later container the
// CAS provisions with the same volume key reads back.
func TestDirFSContainer(t *testing.T) {
	dir := t.TempDir()
	key, err := securetf.NewVolumeKey()
	if err != nil {
		t.Fatal(err)
	}
	casPlat := newPlatform(t, "cas-node")
	server, err := securetf.StartCAS(casPlat, securetf.NewMemFS())
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	registered := false
	onDisk := func() *securetf.Container {
		c := launch(t, securetf.SconeSIM, securetf.TFLiteImage(), func(cfg *securetf.ContainerConfig) {
			cfg.HostFS = securetf.NewDirFS(dir)
			cfg.FSShieldRules = []securetf.Rule{securetf.EncryptPrefix("models/")}
		})
		server.TrustPlatform(c.Platform().Name(), c.Platform().AttestationKey())
		client, err := securetf.NewCASClient(c, server, casPlat, c.Platform())
		if err != nil {
			t.Fatal(err)
		}
		if !registered {
			if err := client.Register(&securetf.Session{
				Name:         "dirfs",
				OwnerToken:   "tok",
				Measurements: []string{c.Enclave().Measurement().Hex()},
				AllowSIM:     true,
				Volumes:      map[string][]byte{"models": key[:]},
			}); err != nil {
				t.Fatal(err)
			}
			registered = true
		}
		if _, _, err := c.Provision(client, "dirfs", "models"); err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := onDisk()
	if err := securetf.WriteFile(c.FS(), "sub/file.bin", []byte("real disk")); err != nil {
		t.Fatal(err)
	}
	got, err := securetf.ReadFile(c.FS(), "sub/file.bin")
	if err != nil || string(got) != "real disk" {
		t.Fatalf("round trip: %q, %v", got, err)
	}

	t.Run("encrypt_prefix_on_disk", func(t *testing.T) {
		secret := []byte("plaintext model weights")
		if err := securetf.WriteFile(c.FS(), "models/model.stfl", secret); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, "models", "model.stfl"))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(raw, secret) {
			t.Fatal("model plaintext visible on disk")
		}
		if _, err := os.Stat(filepath.Join(dir, "models", "model.stfl.sfsmeta")); err != nil {
			t.Fatalf("shield metadata missing: %v", err)
		}
		again := onDisk()
		if got, err := securetf.ReadFile(again.FS(), "models/model.stfl"); err != nil || !bytes.Equal(got, secret) {
			t.Fatalf("shielded round trip across containers: %q, %v", got, err)
		}
	})
}

func TestUnmarshalFrozenModelErrors(t *testing.T) {
	for _, bad := range [][]byte{nil, []byte("no separators"), []byte("in\x00out\x00garbage")} {
		if _, err := securetf.UnmarshalFrozenModel(bad); err == nil {
			t.Fatalf("bad frozen model %q accepted", bad)
		}
	}
}

func TestClassifierRejectsBadOutputShapeUse(t *testing.T) {
	// Classify on a model whose output is not [batch, classes] must be
	// rejected with a shape error, not a panic.
	spec := securetf.ModelSpec{Name: "mini", FileBytes: 1 << 20, GFLOPs: 0.01, InputDim: 64, Classes: 10}
	cl, err := securetf.NewClassifier(nil, securetf.BuildInferenceModel(spec), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Classify(securetf.RandNormal(securetf.Shape{1, 63}, 1, 1)); err == nil {
		t.Fatal("wrong input width accepted")
	}
}

// TestFilterClasses: the rows of the requested classes are kept, in
// their order, with their labels; asking for no class, or rows and
// labels of different lengths, is an error.
func TestFilterClasses(t *testing.T) {
	// Row i holds the pixels 10i and 10i+1 and is labelled labels[i].
	labels := []int{2, 0, 1, 2, 1, 0}
	pixels := make([]float32, 0, 2*len(labels))
	for i := range labels {
		pixels = append(pixels, float32(10*i), float32(10*i+1))
	}
	xs, err := securetf.TensorFromFloats(securetf.Shape{len(labels), 2}, pixels)
	if err != nil {
		t.Fatal(err)
	}
	ys := securetf.OneHot(labels, 3)
	for _, tc := range []struct {
		name    string
		xs, ys  *securetf.Tensor
		classes []int
		rows    []int // the rows kept; nil wants an error
	}{
		{"one class", xs, ys, []int{2}, []int{0, 3}},
		{"two classes, in row order", xs, ys, []int{1, 0}, []int{1, 2, 4, 5}},
		{"no classes", xs, ys, nil, nil},
		{"mismatched shapes", xs, securetf.OneHot(labels[:4], 3), []int{0}, nil},
	} {
		fx, fy, err := securetf.FilterClasses(tc.xs, tc.ys, tc.classes...)
		if tc.rows == nil {
			if err == nil {
				t.Errorf("%s: no error", tc.name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var wantX, wantY []float32
		for _, r := range tc.rows {
			wantX = append(wantX, pixels[2*r:2*r+2]...)
			wantY = append(wantY, ys.Floats()[3*r:3*r+3]...)
		}
		if !slices.Equal(fx.Floats(), wantX) || !slices.Equal(fy.Floats(), wantY) {
			t.Errorf("%s: kept xs %v ys %v, want rows %v", tc.name, fx.Floats(), fy.Floats(), tc.rows)
		}
	}
}
