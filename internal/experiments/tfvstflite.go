package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/securetf/securetf/internal/core"
	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/models"
	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/tflite"
)

// TFvsTFLiteRow is one row of the §5.3 #4 comparison: inference latency
// of the full TensorFlow engine vs TensorFlow Lite inside an HW enclave.
type TFvsTFLiteRow struct {
	Engine      string
	BinaryBytes int64
	ModelBytes  int64
	Latency     time.Duration
}

// TFvsTFLite reproduces the paper's in-text table: classifying one image
// with Inception-v3 in HW mode takes 49.782 s with full TensorFlow
// (87.4 MB binary, read-write runtime state, EPC thrashing) versus
// 0.697 s with TensorFlow Lite (1.9 MB binary, streamed read-only
// weights) — a ~71× gap caused entirely by enclave memory behaviour.
func TFvsTFLite(cfg Config) ([]TFvsTFLiteRow, error) {
	cfg = cfg.withDefaults()
	spec := models.InceptionV3

	// --- TensorFlow Lite in HW mode. ---
	cfg.logf("tf-vs-tflite: TensorFlow Lite (HW)")
	liteModel := models.BuildInferenceModel(spec)
	input := models.RandomImageInput(spec, 1, 9)
	liteLatency, err := classifyLatency(core.RuntimeSconeHW, liteModel, input, 1, 1, nil)
	if err != nil {
		return nil, err
	}

	// --- Full TensorFlow in HW mode. ---
	cfg.logf("tf-vs-tflite: full TensorFlow (HW)")
	platform, err := newPlatform("node")
	if err != nil {
		return nil, err
	}
	c, err := core.Launch(core.Config{
		Kind:     core.RuntimeSconeHW,
		Platform: platform,
		Image:    models.TFFullImage(),
		HostFS:   fsapi.NewMem(),
		Threads:  1,
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	g, x, probs := models.BuildInferenceTFGraph(spec)
	sess := tf.NewSession(g, tf.WithDevice(c.Device(1)))
	defer sess.Close()
	// The full runtime keeps the model as writable state (constants are
	// materialized into its arena); register that residency.
	if e := c.Enclave(); e != nil {
		e.Alloc("tf/model-state", spec.FileBytes)
	}

	// Warm-up (arena registration), then the measured run.
	if _, err := sess.Run(tf.Feeds{x: input}, []*tf.Node{probs}); err != nil {
		return nil, err
	}
	span := c.Clock().Start()
	if _, err := sess.Run(tf.Feeds{x: input}, []*tf.Node{probs}); err != nil {
		return nil, err
	}
	tfLatency := span.Stop()

	rows := []TFvsTFLiteRow{
		{Engine: "TensorFlow", BinaryBytes: models.TFFullBinaryBytes, ModelBytes: spec.FileBytes, Latency: tfLatency},
		{Engine: "TensorFlow Lite", BinaryBytes: tflite.BinarySize, ModelBytes: spec.FileBytes, Latency: liteLatency},
	}
	cfg.logf("tf-vs-tflite: TF %.2f s vs TFLite %.2f s (%.0fx)",
		tfLatency.Seconds(), liteLatency.Seconds(), float64(tfLatency)/float64(liteLatency))
	return rows, nil
}

// PrintTFvsTFLite renders the rows.
func PrintTFvsTFLite(w io.Writer, rows []TFvsTFLiteRow) {
	fmt.Fprintln(w, "TensorFlow vs TensorFlow Lite inference in HW mode (paper §5.3 #4)")
	fmt.Fprintf(w, "%-18s %12s %12s %12s\n", "engine", "binary(MB)", "model(MB)", "latency(s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %12.1f %12d %12s\n", r.Engine, float64(r.BinaryBytes)/(1<<20), r.ModelBytes>>20, fmtDurS(r.Latency))
	}
	if len(rows) == 2 && rows[1].Latency > 0 {
		fmt.Fprintf(w, "ratio: %.0fx\n", float64(rows[0].Latency)/float64(rows[1].Latency))
	}
}
