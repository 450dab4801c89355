package datasets

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/tf"
)

// CIFAR-10 geometry (binary version: 1 label byte + 3072 pixel bytes per
// record, 1024 per channel in R,G,B order).
const (
	CIFARSize    = 32
	CIFARClasses = 10
	cifarRecord  = 1 + 3*CIFARSize*CIFARSize
)

// CIFARLabels matches the canonical class names.
var CIFARLabels = []string{
	"airplane", "automobile", "bird", "cat", "deer",
	"dog", "frog", "horse", "ship", "truck",
}

// renderCIFAR draws a class-conditional 32x32 RGB pattern: each class has
// a distinct dominant hue and spatial frequency, plus noise, so a small
// CNN can learn to separate them.
func renderCIFAR(rec []byte, class int, rng *rand.Rand) {
	rec[0] = byte(class)
	freq := 1 + float64(class%5)
	phase := float64(float64(class) * 0.7) // rounded here: see the loop
	baseR := 64 + 18*class
	baseG := 220 - 16*class
	baseB := 40 + 21*((class*3)%10)
	for y := 0; y < CIFARSize; y++ {
		for x := 0; x < CIFARSize; x++ {
			idx := y*CIFARSize + x
			// Every product that is added to is rounded first (float64(a*b)),
			// phase above included, so that arm64, which would fuse the
			// two, writes the bytes amd64 does: the files' hashes are pinned.
			wave := math.Sin(float64(freq*2*math.Pi*float64(x)/CIFARSize)+phase) *
				math.Cos(freq*2*math.Pi*float64(y)/CIFARSize)
			mod := 0.5 + float64(0.5*wave)
			noise := rng.Intn(48)
			rec[1+idx] = clampByte(float64(float64(baseR)*mod) + float64(noise))
			rec[1+1024+idx] = clampByte(float64(float64(baseG)*mod) + float64(noise))
			rec[1+2048+idx] = clampByte(float64(float64(baseB)*mod) + float64(noise))
		}
	}
}

func clampByte(v float64) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}

// GenerateCIFAR10 writes batches data_batch_1.bin … data_batch_N.bin plus
// test_batch.bin under dir, each holding perBatch records.
func GenerateCIFAR10(fsys fsapi.FS, dir string, perBatch, batches int, seed int64) error {
	if perBatch < 0 || batches < 0 {
		return fmt.Errorf("datasets: negative CIFAR-10 count (%d examples in each of %d batches)", perBatch, batches)
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	writeBatch := func(name string) error {
		buf := make([]byte, perBatch*cifarRecord)
		for i := 0; i < perBatch; i++ {
			renderCIFAR(buf[i*cifarRecord:(i+1)*cifarRecord], i%CIFARClasses, rng)
		}
		return fsapi.WriteFile(fsys, dir+"/"+name, buf)
	}
	for b := 1; b <= batches; b++ {
		if err := writeBatch(fmt.Sprintf("data_batch_%d.bin", b)); err != nil {
			return err
		}
	}
	return writeBatch("test_batch.bin")
}

// LoadCIFAR10 reads one binary batch, returning images in [0,1] with
// shape [N,32,32,3] and one-hot labels [N,10].
func LoadCIFAR10(fsys fsapi.FS, path string) (*tf.Tensor, *tf.Tensor, error) {
	raw, err := fsapi.ReadFile(fsys, path)
	if err != nil {
		return nil, nil, err
	}
	if len(raw)%cifarRecord != 0 {
		return nil, nil, fmt.Errorf("datasets: %q is not a CIFAR-10 batch (%d bytes)", path, len(raw))
	}
	n := len(raw) / cifarRecord
	images := tf.NewTensor(tf.Float32, tf.Shape{n, CIFARSize, CIFARSize, 3})
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		rec := raw[i*cifarRecord : (i+1)*cifarRecord]
		label := int(rec[0])
		if label >= CIFARClasses {
			return nil, nil, fmt.Errorf("datasets: record %d has label %d", i, label)
		}
		labels[i] = label
		// Channel-planar to NHWC.
		for y := 0; y < CIFARSize; y++ {
			for x := 0; x < CIFARSize; x++ {
				idx := y*CIFARSize + x
				base := ((i*CIFARSize+y)*CIFARSize + x) * 3
				images.Floats()[base] = float32(rec[1+idx]) / 255
				images.Floats()[base+1] = float32(rec[1+1024+idx]) / 255
				images.Floats()[base+2] = float32(rec[1+2048+idx]) / 255
			}
		}
	}
	return images, tf.OneHot(labels, CIFARClasses), nil
}
