package router

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/securetf/securetf/internal/core"
	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/seccrypto"
	"github.com/securetf/securetf/internal/serving"
	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/tflite"
)

// newPlatform builds one SGX platform; containers launched on it share
// its virtual clock, like a co-located serving fleet.
func newPlatform(t testing.TB) *sgx.Platform {
	t.Helper()
	platform, err := sgx.NewPlatform("router-fleet", sgx.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return platform
}

// launchOn starts one container on platform.
func launchOn(t testing.TB, platform *sgx.Platform) *core.Container {
	t.Helper()
	c, err := core.Launch(core.Config{
		Kind:     core.RuntimeSconeHW,
		Platform: platform,
		Image:    sgx.SyntheticImage("tflite-app", tflite.BinarySize, 4<<20),
		HostFS:   fsapi.NewMem(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// fcModel hand-builds a single FullyConnected model mapping [rows, k]
// to [rows, n], with weight(i,j) = w(i,j) — small, fast, and
// shape-composable, so graph steps can pipe into each other.
func fcModel(k, n int, w func(i, j int) float32) *tflite.Model {
	buf := make([]byte, 0, 4*k*n)
	for i := 0; i < k; i++ {
		for j := 0; j < n; j++ {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(w(i, j)))
		}
	}
	return &tflite.Model{
		Tensors: []tflite.TensorSpec{
			{Name: "in", Type: tflite.TypeFloat32, Shape: []int{-1, k}, Buffer: -1},
			{Name: "w", Type: tflite.TypeFloat32, Shape: []int{k, n}, Buffer: 0},
			{Name: "out", Type: tflite.TypeFloat32, Shape: []int{-1, n}, Buffer: -1},
		},
		Buffers: [][]byte{buf},
		Ops: []tflite.OpSpec{
			{Code: tflite.OpFullyConnected, Inputs: []int{0, 1}, Outputs: []int{2}},
		},
		Inputs:  []int{0},
		Outputs: []int{2},
	}
}

// scaled returns a scaled-identity weight function: out = scale * in.
func scaled(scale float32) func(i, j int) float32 {
	return func(i, j int) float32 {
		if i == j {
			return scale
		}
		return 0
	}
}

// startNode launches a gateway container on platform and registers the
// given models at version 1.
func startNode(t testing.TB, platform *sgx.Platform, models map[string]*tflite.Model) *serving.Gateway {
	t.Helper()
	return startNodeWith(t, platform, serving.Config{}, models)
}

// startNodeWith is startNode for a gateway of config cfg.
func startNodeWith(t testing.TB, platform *sgx.Platform, cfg serving.Config, models map[string]*tflite.Model) *serving.Gateway {
	t.Helper()
	c := launchOn(t, platform)
	g, err := serving.NewGateway(c, "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	for name, m := range models {
		if err := g.Register(name, 1, m); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func vec(vals ...float32) *tf.Tensor {
	t, err := tf.FromFloats(tf.Shape{1, len(vals)}, vals)
	if err != nil {
		panic(err)
	}
	return t
}

func TestManifestCodecAndSignature(t *testing.T) {
	m := Manifest{
		Nodes: []NodeInfo{
			{Name: "a", Addr: "127.0.0.1:1", Models: []string{"ocr", "redact"}},
			{Name: "b", Addr: "127.0.0.1:2", Models: []string{"classify"}},
		},
		Graphs: []string{"digitize"},
	}
	dec, err := decodeManifest(m.encode())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(dec) != fmt.Sprint(m) {
		t.Fatalf("manifest round trip: %+v != %+v", dec, m)
	}
	if !m.HasModel("ocr") || m.HasModel("ghost") || !m.HasGraph("digitize") || m.HasGraph("ghost") {
		t.Fatal("manifest membership checks")
	}
	if got := fmt.Sprint(m.Models()); got != "[classify ocr redact]" {
		t.Fatalf("manifest models = %s", got)
	}
	// Canonical encoding: model order inside a node must not change the
	// signed bytes.
	shuffled := Manifest{
		Nodes: []NodeInfo{
			{Name: "a", Addr: "127.0.0.1:1", Models: []string{"redact", "ocr"}},
			{Name: "b", Addr: "127.0.0.1:2", Models: []string{"classify"}},
		},
		Graphs: []string{"digitize"},
	}
	if !bytes.Equal(m.encode(), shuffled.encode()) {
		t.Fatal("canonical encoding depends on model declaration order")
	}

	var buf bytes.Buffer
	if err := writeHello(&buf, hello{Models: []string{"ocr"}, Graphs: []string{"digitize"}}); err != nil {
		t.Fatal(err)
	}
	h, err := readHello(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(h.Models) != "[ocr]" || fmt.Sprint(h.Graphs) != "[digitize]" {
		t.Fatalf("hello round trip: %+v", h)
	}

	key, err := seccrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := writeManifestReply(&buf, key, m, ""); err != nil {
		t.Fatal(err)
	}
	dec2, raw, sig, err := readManifestReply(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(dec2) != fmt.Sprint(m) {
		t.Fatalf("signed reply round trip: %+v", dec2)
	}
	if !seccrypto.Verify(key.Public(), raw, sig) {
		t.Fatal("manifest signature does not verify")
	}
	other, err := seccrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	if seccrypto.Verify(other.Public(), raw, sig) {
		t.Fatal("manifest signature verifies under the wrong key")
	}

	buf.Reset()
	if err := writeManifestReply(&buf, key, m, "no node places model \"ghost\""); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := readManifestReply(&buf); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("refusal err = %v, want ErrManifestMismatch", err)
	}
}

func TestGraphCompileValidation(t *testing.T) {
	placement := map[string][]*node{"a": nil, "b": nil}
	seq := func(models ...string) GraphNode {
		gn := GraphNode{Kind: Sequence}
		for _, m := range models {
			gn.Steps = append(gn.Steps, GraphStep{Model: m})
		}
		return gn
	}
	cases := []struct {
		name     string
		spec     GraphSpec
		wantErr  bool
		mismatch bool
	}{
		{name: "ok", spec: GraphSpec{Name: "g", Nodes: map[string]GraphNode{"root": seq("a", "b")}}},
		{name: "explicit root", spec: GraphSpec{Name: "g", Root: "top", Nodes: map[string]GraphNode{"top": seq("a")}}},
		{name: "no name", spec: GraphSpec{Nodes: map[string]GraphNode{"root": seq("a")}}, wantErr: true},
		{name: "model collision", spec: GraphSpec{Name: "a", Nodes: map[string]GraphNode{"root": seq("b")}}, wantErr: true},
		{name: "missing root", spec: GraphSpec{Name: "g", Nodes: map[string]GraphNode{"top": seq("a")}}, wantErr: true},
		{name: "no steps", spec: GraphSpec{Name: "g", Nodes: map[string]GraphNode{"root": {Kind: Sequence}}}, wantErr: true},
		{
			name:    "unplaced model",
			spec:    GraphSpec{Name: "g", Nodes: map[string]GraphNode{"root": seq("ghost")}},
			wantErr: true, mismatch: true,
		},
		{
			name: "both model and ref",
			spec: GraphSpec{Name: "g", Nodes: map[string]GraphNode{
				"root": {Kind: Sequence, Steps: []GraphStep{{Model: "a", NodeRef: "root"}}},
			}},
			wantErr: true,
		},
		{
			name: "unknown node ref",
			spec: GraphSpec{Name: "g", Nodes: map[string]GraphNode{
				"root": {Kind: Sequence, Steps: []GraphStep{{NodeRef: "ghost"}}},
			}},
			wantErr: true,
		},
		{
			name: "cycle",
			spec: GraphSpec{Name: "g", Nodes: map[string]GraphNode{
				"root": {Kind: Sequence, Steps: []GraphStep{{NodeRef: "loop"}}},
				"loop": {Kind: Sequence, Steps: []GraphStep{{NodeRef: "root"}}},
			}},
			wantErr: true,
		},
		{
			name: "two switch defaults",
			spec: GraphSpec{Name: "g", Nodes: map[string]GraphNode{
				"root": {Kind: Switch, Steps: []GraphStep{{Model: "a"}, {Model: "b"}}},
			}},
			wantErr: true,
		},
		{
			name: "unknown kind",
			spec: GraphSpec{Name: "g", Nodes: map[string]GraphNode{
				"root": {Kind: "mixer", Steps: []GraphStep{{Model: "a"}}},
			}},
			wantErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := compileGraph(tc.spec, placement)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr = %v", err, tc.wantErr)
			}
			if tc.mismatch && !errors.Is(err, ErrManifestMismatch) {
				t.Fatalf("err = %v, want ErrManifestMismatch", err)
			}
		})
	}
}

func TestPlacementMismatchFailsFast(t *testing.T) {
	platform := newPlatform(t)
	g := startNode(t, platform, map[string]*tflite.Model{"a": fcModel(4, 4, scaled(1))})
	rc := launchOn(t, platform)

	// The node does not serve a declared model: the router must refuse
	// to start.
	_, err := New(rc, "127.0.0.1:0", Config{Nodes: []NodeSpec{
		{Name: "n0", Addr: g.Addr(), Models: []string{"a", "ghost"}},
	}})
	if !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("undeclared model: err = %v, want ErrManifestMismatch", err)
	}

	// An unreachable node is a placement failure too.
	_, err = New(rc, "127.0.0.1:0", Config{Nodes: []NodeSpec{
		{Name: "n0", Addr: "127.0.0.1:1", Models: []string{"a"}},
	}})
	if !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("unreachable node: err = %v, want ErrManifestMismatch", err)
	}

	// Config validation fails before any dialing.
	for _, cfg := range []Config{
		{},
		{Nodes: []NodeSpec{{Name: "", Addr: g.Addr(), Models: []string{"a"}}}},
		{Nodes: []NodeSpec{{Name: "n0", Addr: g.Addr(), Models: nil}}},
		{Nodes: []NodeSpec{
			{Name: "n0", Addr: g.Addr(), Models: []string{"a"}},
			{Name: "n0", Addr: g.Addr(), Models: []string{"a"}},
		}},
	} {
		if _, err := New(rc, "127.0.0.1:0", cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}

	// A healthy router refuses clients whose expectations the manifest
	// cannot satisfy — at dial time, not mid-traffic.
	r, err := New(rc, "127.0.0.1:0", Config{Nodes: []NodeSpec{
		{Name: "n0", Addr: g.Addr(), Models: []string{"a"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cc := launchOn(t, platform)
	if _, err := DialClient(cc, r.Addr(), "", ClientConfig{ExpectModels: []string{"ghost"}}); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("ghost model expectation: err = %v, want ErrManifestMismatch", err)
	}
	if _, err := DialClient(cc, r.Addr(), "", ClientConfig{ExpectGraphs: []string{"ghost"}}); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("ghost graph expectation: err = %v, want ErrManifestMismatch", err)
	}
	// Signature pinning: the wrong key is rejected, the router's own key
	// verifies.
	wrongKey, err := seccrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DialClient(cc, r.Addr(), "", ClientConfig{VerifyKey: wrongKey.Public()}); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("wrong manifest key: err = %v, want ErrManifestMismatch", err)
	}
	cl, err := DialClient(cc, r.Addr(), "", ClientConfig{
		VerifyKey:    r.ManifestKey().Public(),
		ExpectModels: []string{"a"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if got := fmt.Sprint(cl.Manifest().Models()); got != "[a]" {
		t.Fatalf("client manifest models = %s", got)
	}
}

func TestGraphExecutionAcrossNodes(t *testing.T) {
	platform := newPlatform(t)
	// Three single-model nodes: pre doubles, mid adds nothing (identity),
	// post quadruples — a sequence across three distinct enclaves.
	pre := startNode(t, platform, map[string]*tflite.Model{"pre": fcModel(4, 4, scaled(2))})
	mid := startNode(t, platform, map[string]*tflite.Model{"mid": fcModel(4, 4, scaled(1))})
	post := startNode(t, platform, map[string]*tflite.Model{"post": fcModel(4, 4, scaled(4))})

	rc := launchOn(t, platform)
	r, err := New(rc, "127.0.0.1:0", Config{
		Nodes: []NodeSpec{
			{Name: "pre-node", Addr: pre.Addr(), Models: []string{"pre"}},
			{Name: "mid-node", Addr: mid.Addr(), Models: []string{"mid"}},
			{Name: "post-node", Addr: post.Addr(), Models: []string{"post"}},
		},
		Graphs: []GraphSpec{{
			Name: "pipeline",
			Nodes: map[string]GraphNode{
				"root": {Kind: Sequence, Steps: []GraphStep{
					{Name: "preprocess", Model: "pre"},
					{Name: "classify", Model: "mid"},
					{Name: "postprocess", Model: "post"},
				}},
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	cc := launchOn(t, platform)
	cl, err := DialClient(cc, r.Addr(), "", ClientConfig{ExpectGraphs: []string{"pipeline"}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// The listing covers models and graphs.
	names, err := cl.Models()
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(names); got != "[mid pipeline post pre]" {
		t.Fatalf("router listing = %s", got)
	}

	// One client call executes the whole multi-node sequence: 2x * 1x *
	// 4x = 8x, with the summed per-step virtual time on the response.
	in := vec(1, 2, 3, 4)
	out, ver, vt, err := cl.InferTimed("pipeline", 0, in)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 1 {
		t.Fatalf("graph version = %d", ver)
	}
	for i, v := range out.Floats() {
		if want := in.Floats()[i] * 8; v != want {
			t.Fatalf("output[%d] = %v, want %v", i, v, want)
		}
	}
	if vt <= 0 {
		t.Fatal("graph response carries no virtual service time")
	}

	// The trace attributes each step to its node with its own vtime.
	traces := r.Traces("pipeline")
	if len(traces) != 1 {
		t.Fatalf("%d traces, want 1", len(traces))
	}
	tr := traces[0]
	if len(tr.Steps) != 3 || tr.Err != "" {
		t.Fatalf("trace = %+v", tr)
	}
	wantSteps := []struct{ step, model, node string }{
		{"preprocess", "pre", "pre-node"},
		{"classify", "mid", "mid-node"},
		{"postprocess", "post", "post-node"},
	}
	var sum time.Duration
	for i, want := range wantSteps {
		st := tr.Steps[i]
		if st.Step != want.step || st.Model != want.model || st.Node != want.node {
			t.Fatalf("step %d = %+v, want %+v", i, st, want)
		}
		if st.Vtime <= 0 {
			t.Fatalf("step %d carries no virtual time", i)
		}
		sum += st.Vtime
	}
	if tr.Total != sum || vt != sum {
		t.Fatalf("total vtime %v (wire %v) != step sum %v", tr.Total, vt, sum)
	}

	// Aggregates mirror the execution.
	m := r.Metrics()
	if len(m.Graphs) != 1 || m.Graphs[0].Graph != "pipeline" || m.Graphs[0].Requests != 1 {
		t.Fatalf("graph metrics = %+v", m.Graphs)
	}
	if len(m.Graphs[0].Steps) != 3 {
		t.Fatalf("graph step metrics = %+v", m.Graphs[0].Steps)
	}

	// Argmax applies to the graph's final output at the router.
	classes, err := cl.Classify("pipeline", vec(0, 5, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(classes) != "[1]" {
		t.Fatalf("graph classify = %v", classes)
	}

	// Plain model requests route through the same surface.
	single, _, err := cl.Infer("pre", 0, vec(1, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if single.Floats()[0] != 2 {
		t.Fatalf("plain model through router = %v", single.Floats())
	}
}

func TestEnsembleSplitterSwitchSemantics(t *testing.T) {
	platform := newPlatform(t)
	// heavy lives on its own node so killing that node degrades exactly
	// the ensemble/switch branches that need it.
	stable := startNode(t, platform, map[string]*tflite.Model{
		"light": fcModel(4, 4, scaled(2)),
		"fall":  fcModel(4, 4, scaled(1)),
	})
	fragile := startNode(t, platform, map[string]*tflite.Model{"heavy": fcModel(4, 4, scaled(6))})

	rc := launchOn(t, platform)
	when0 := 0
	r, err := New(rc, "127.0.0.1:0", Config{
		Nodes: []NodeSpec{
			{Name: "stable", Addr: stable.Addr(), Models: []string{"light", "fall"}},
			{Name: "fragile", Addr: fragile.Addr(), Models: []string{"heavy"}},
		},
		Graphs: []GraphSpec{
			{Name: "blend", Nodes: map[string]GraphNode{
				"root": {Kind: Ensemble, Steps: []GraphStep{{Model: "light"}, {Model: "heavy"}}},
			}},
			{Name: "split", Nodes: map[string]GraphNode{
				"root": {Kind: Splitter, Steps: []GraphStep{
					{Model: "heavy", Weight: 3},
					{Model: "light", Weight: 1},
				}},
			}},
			{Name: "route", Nodes: map[string]GraphNode{
				"root": {Kind: Switch, Steps: []GraphStep{
					{Model: "heavy", When: &when0},
					{Model: "fall"},
				}},
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	cc := launchOn(t, platform)
	cl, err := DialClient(cc, r.Addr(), "", ClientConfig{
		ExpectGraphs: []string{"blend", "split", "route"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Ensemble: elementwise mean of 2x and 6x is 4x.
	in := vec(1, 2, 3, 4)
	out, _, err := cl.Infer("blend", 0, in)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out.Floats() {
		if want := in.Floats()[i] * 4; v != want {
			t.Fatalf("ensemble[%d] = %v, want %v", i, v, want)
		}
	}

	// Splitter: a 3:1 weighting sends 3 of every 4 executions to heavy.
	heavyHits, lightHits := 0, 0
	for i := 0; i < 8; i++ {
		out, _, err := cl.Infer("split", 0, vec(1, 0, 0, 0))
		if err != nil {
			t.Fatal(err)
		}
		switch out.Floats()[0] {
		case 6:
			heavyHits++
		case 2:
			lightHits++
		default:
			t.Fatalf("splitter output %v", out.Floats())
		}
	}
	if heavyHits != 6 || lightHits != 2 {
		t.Fatalf("splitter spread heavy=%d light=%d, want 6 and 2", heavyHits, lightHits)
	}

	// Switch: class 0 takes the heavy branch, anything else the default.
	out, _, err = cl.Infer("route", 0, vec(9, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if out.Floats()[0] != 9*6 {
		t.Fatalf("switch matched branch = %v", out.Floats())
	}
	out, _, err = cl.Infer("route", 0, vec(0, 9, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if out.Floats()[1] != 9 {
		t.Fatalf("switch default branch = %v", out.Floats())
	}

	// Node death degrades, never drops: with the heavy node gone the
	// ensemble falls back to its survivor, the switch's matched branch
	// falls over to the default, and the splitter's heavy share fails
	// over to light.
	fragile.Close()
	out, _, err = cl.Infer("blend", 0, in)
	if err != nil {
		t.Fatalf("ensemble with a dead branch: %v", err)
	}
	for i, v := range out.Floats() {
		if want := in.Floats()[i] * 2; v != want {
			t.Fatalf("degraded ensemble[%d] = %v, want the survivor's %v", i, v, want)
		}
	}
	out, _, err = cl.Infer("route", 0, vec(9, 0, 0, 0))
	if err != nil {
		t.Fatalf("switch with a dead matched branch: %v", err)
	}
	if out.Floats()[0] != 9 {
		t.Fatalf("switch fallback = %v, want the default branch's 9", out.Floats())
	}
	for i := 0; i < 4; i++ {
		out, _, err := cl.Infer("split", 0, vec(1, 0, 0, 0))
		if err != nil {
			t.Fatalf("splitter with a dead branch: %v", err)
		}
		if out.Floats()[0] != 2 {
			t.Fatalf("splitter fail-over output %v, want light's 2", out.Floats())
		}
	}
	if m := r.Metrics(); m.Failovers == 0 {
		t.Fatal("no fail-overs recorded after node death")
	}
}

func TestFailoverChurnNoDrops(t *testing.T) {
	platform := newPlatform(t)
	model := func() *tflite.Model { return fcModel(4, 4, scaled(3)) }
	// The same model placed on two nodes; one dies mid-traffic.
	n0 := startNode(t, platform, map[string]*tflite.Model{"m": model()})
	n1 := startNode(t, platform, map[string]*tflite.Model{"m": model()})

	rc := launchOn(t, platform)
	r, err := New(rc, "127.0.0.1:0", Config{Nodes: []NodeSpec{
		{Name: "n0", Addr: n0.Addr(), Models: []string{"m"}},
		{Name: "n1", Addr: n1.Addr(), Models: []string{"m"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const clients, perClient = 8, 30
	var killOnce sync.Once
	errs := make(chan error, clients)
	cc := launchOn(t, platform)
	for w := 0; w < clients; w++ {
		go func(w int) {
			cl, err := DialClient(cc, r.Addr(), "", ClientConfig{ExpectModels: []string{"m"}})
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < perClient; i++ {
				if w == 0 && i == perClient/3 {
					// Kill a node with traffic in flight everywhere.
					killOnce.Do(func() { n1.Close() })
				}
				out, _, err := cl.Infer("m", 0, vec(1, 2, 3, 4))
				if err != nil {
					// Overload is a definitive answer (the queue bound is
					// doing its job); anything else is a drop.
					if errors.Is(err, serving.ErrOverloaded) {
						continue
					}
					errs <- fmt.Errorf("client %d request %d: %w", w, i, err)
					return
				}
				if out.Floats()[0] != 3 {
					errs <- fmt.Errorf("client %d request %d: wrong output %v", w, i, out.Floats())
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < clients; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	m := r.Metrics()
	if m.Failovers == 0 {
		t.Fatal("node death produced no fail-overs")
	}
	var deadName string
	for _, nm := range m.Nodes {
		if nm.Name == "n1" {
			if !nm.Dead {
				t.Fatalf("killed node not marked dead: %+v", nm)
			}
			deadName = nm.Name
		}
		if nm.Name == "n0" && nm.Requests == 0 {
			t.Fatal("surviving node served nothing")
		}
	}
	if deadName == "" {
		t.Fatal("killed node missing from metrics")
	}

	// Revival: a replacement gateway at the same address passes the
	// probe's placement check and rejoins the spread at minimum weight.
	addr := ""
	for _, nm := range m.Nodes {
		if nm.Name == "n1" {
			addr = nm.Addr
		}
	}
	g2, err := serving.NewGateway(launchOn(t, platform), addr, serving.Config{})
	if err != nil {
		t.Skipf("could not rebind %s for the revival phase: %v", addr, err)
	}
	defer g2.Close()
	if err := g2.Register("m", 1, model()); err != nil {
		t.Fatal(err)
	}
	r.TickHealth()
	for _, nm := range r.Metrics().Nodes {
		if nm.Name == "n1" && nm.Dead {
			t.Fatal("probed node still dead after a healthy replacement came up")
		}
	}
	cl, err := DialClient(cc, r.Addr(), "", ClientConfig{ExpectModels: []string{"m"}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, err := cl.Infer("m", 0, vec(1, 0, 0, 0)); err != nil {
		t.Fatalf("request after revival: %v", err)
	}
}

// TestProbeKeepsMisplacedNodeDead: a dead node that comes back without
// one of its declared models fails the placement check it passed at
// startup and stays out of the spread; once the model is back, the next
// tick revives it.
func TestProbeKeepsMisplacedNodeDead(t *testing.T) {
	platform := newPlatform(t)
	model := func() *tflite.Model { return fcModel(4, 4, scaled(1)) }
	g := startNode(t, platform, map[string]*tflite.Model{"a": model(), "b": model()})
	rc := launchOn(t, platform)
	r, err := New(rc, "127.0.0.1:0", Config{Nodes: []NodeSpec{
		{Name: "n0", Addr: g.Addr(), Models: []string{"a", "b"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	n0 := r.nodes[0]
	addr := g.Addr()
	g.Close()
	r.markDead(n0)

	g2, err := serving.NewGateway(launchOn(t, platform), addr, serving.Config{})
	if err != nil {
		t.Skipf("could not rebind %s for the rejoin: %v", addr, err)
	}
	defer g2.Close()
	if err := g2.Register("a", 1, model()); err != nil {
		t.Fatal(err)
	}
	r.TickHealth()
	if !n0.dead.Load() {
		t.Fatal("a node that came back without its declared model b was revived")
	}
	if err := g2.Register("b", 1, model()); err != nil {
		t.Fatal(err)
	}
	r.TickHealth()
	if n0.dead.Load() {
		t.Fatal("the node stayed dead after it served its whole placement again")
	}
}

func TestSpreadAndHealthWeights(t *testing.T) {
	platform := newPlatform(t)
	model := func() *tflite.Model { return fcModel(4, 4, scaled(1)) }
	n0 := startNode(t, platform, map[string]*tflite.Model{"m": model()})
	n1 := startNode(t, platform, map[string]*tflite.Model{"m": model()})

	rc := launchOn(t, platform)
	r, err := New(rc, "127.0.0.1:0", Config{Nodes: []NodeSpec{
		{Name: "n0", Addr: n0.Addr(), Models: []string{"m"}},
		{Name: "n1", Addr: n1.Addr(), Models: []string{"m"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	cc := launchOn(t, platform)
	cl, err := DialClient(cc, r.Addr(), "", ClientConfig{ExpectModels: []string{"m"}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const total = 40
	for i := 0; i < total; i++ {
		if _, _, err := cl.Infer("m", 0, vec(1, 2, 3, 4)); err != nil {
			t.Fatal(err)
		}
	}
	// Equal weights: smooth weighted round-robin alternates exactly.
	for _, nm := range r.Metrics().Nodes {
		if nm.Requests != total/2 {
			t.Fatalf("node %s served %d of %d, want an even split", nm.Name, nm.Requests, total)
		}
	}
}
