package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/securetf/securetf/internal/cas"
	"github.com/securetf/securetf/internal/core"
	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/models"
	"github.com/securetf/securetf/internal/seccrypto"
	"github.com/securetf/securetf/internal/shield/fsshield"
	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/tflite"
)

// Fig6Row is one bar of Figure 6: classification latency with and
// without the file-system shield (FSPF).
type Fig6Row struct {
	System     string
	Model      string
	ModelBytes int64
	FSPF       bool
	Latency    time.Duration
}

// fig6Kinds are the systems of Figure 6.
func fig6Kinds() []struct {
	kind core.RuntimeKind
	fspf bool
} {
	return []struct {
		kind core.RuntimeKind
		fspf bool
	}{
		{core.RuntimeNativeMusl, false},
		{core.RuntimeSconeSIM, false},
		{core.RuntimeSconeSIM, true},
		{core.RuntimeSconeHW, false},
		{core.RuntimeSconeHW, true},
	}
}

// Figure6 reproduces the file-system shield effect (paper Fig. 6): the
// encrypted model and input are decrypted inside the enclave; amortized
// over the run count the overhead is a fraction of a percent (the paper
// reports 0.12 % in Sim and 0.9 % in HW mode). An FSPF row's volume key
// comes from a CAS session, outside the timed span; the timed read of
// the model pays the CAS audit's freshness check.
func Figure6(cfg Config) ([]Fig6Row, error) {
	cfg = cfg.withDefaults()
	var rows []Fig6Row
	for _, spec := range cfg.Models {
		cfg.logf("fig6: building %s (%d MB)", spec.Name, spec.FileBytes>>20)
		model := models.BuildInferenceModel(spec)
		raw := model.Marshal()
		input := models.RandomImageInput(spec, 1, 6)
		for _, sys := range fig6Kinds() {
			latency, err := fspfLatency(sys.kind, sys.fspf, raw, input, spec, cfg.Runs)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig6 %v fspf=%v: %w", sys.kind, sys.fspf, err)
			}
			label := sys.kind.String()
			if sys.fspf {
				label += " w/ FSPF"
			}
			cfg.logf("fig6: %-16s %-13s %8.1f ms", label, spec.Name, float64(latency)/1e6)
			rows = append(rows, Fig6Row{
				System:     label,
				Model:      spec.Name,
				ModelBytes: spec.FileBytes,
				FSPF:       sys.fspf,
				Latency:    latency,
			})
		}
	}
	return rows, nil
}

// fspfLatency measures mean latency including amortized startup: the
// model file is read (and with FSPF decrypted and verified) through the
// container's file system before the classification runs.
func fspfLatency(kind core.RuntimeKind, fspf bool, modelRaw []byte, input *tf.Tensor, spec models.InferenceSpec, runs int) (time.Duration, error) {
	platform, err := newPlatform("node")
	if err != nil {
		return 0, err
	}
	ccfg := core.Config{
		Kind:     kind,
		Platform: platform,
		Image:    models.TFLiteImage(),
		HostFS:   fsapi.NewMem(),
		Threads:  1,
	}
	if fspf {
		ccfg.FSShieldRules = []fsshield.Rule{{Prefix: "protected/", Level: fsshield.LevelEncrypted}}
	}
	c, err := core.Launch(ccfg)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	if fspf {
		volKey, err := seccrypto.NewRandomKey()
		if err != nil {
			return 0, err
		}
		server, connect, err := startCAS(&cas.Session{
			Name:         "fig6",
			OwnerToken:   "tok",
			Measurements: []string{ccfg.Image.Measure().Hex()},
			AllowSIM:     kind == core.RuntimeSconeSIM,
			Volumes:      map[string][]byte{"protected": volKey[:]},
		}, platform)
		if err != nil {
			return 0, err
		}
		defer server.Close()
		client, err := connect(c.Enclave())
		if err != nil {
			return 0, err
		}
		if _, _, err := c.Provision(client, "fig6", "protected"); err != nil {
			return 0, err
		}
	}

	// Provision the model file (setup, not timed): written through the
	// container FS so with FSPF it lands encrypted on the host.
	modelPath := "protected/model.tflite"
	if err := fsapi.WriteFile(c.FS(), modelPath, modelRaw); err != nil {
		return 0, err
	}

	clock := c.Clock()
	span := clock.Start()
	// Startup: read (and with FSPF decrypt+verify) the model.
	loaded, err := fsapi.ReadFile(c.FS(), modelPath)
	if err != nil {
		return 0, err
	}
	model, err := tflite.Unmarshal(loaded)
	if err != nil {
		return 0, err
	}
	interp, err := tflite.NewInterpreter(model, tflite.WithDevice(c.Device(1)))
	if err != nil {
		return 0, err
	}
	defer interp.Close()
	if err := interp.AllocateTensors(); err != nil {
		return 0, err
	}
	if err := interp.SetInput(0, input); err != nil {
		return 0, err
	}
	for i := 0; i < runs; i++ {
		if err := interp.Invoke(); err != nil {
			return 0, err
		}
	}
	return span.Stop() / time.Duration(runs), nil
}

// PrintFigure6 renders the rows.
func PrintFigure6(w io.Writer, rows []Fig6Row) {
	fmt.Fprintln(w, "Figure 6 — file-system shield effect on classification latency (ms)")
	fmt.Fprintf(w, "%-18s %-14s %10s %12s\n", "system", "model", "size(MB)", "latency(ms)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %-14s %10d %12s\n", r.System, r.Model, r.ModelBytes>>20, fmtDur(r.Latency))
	}
}
