// Package datasets provides deterministic synthetic stand-ins for the two
// datasets the paper evaluates with — MNIST (§5.4 distributed training)
// and CIFAR-10 (§5.3 classification) — emitted in the real on-disk
// formats (IDX and CIFAR binary batches) so that file I/O, the
// file-system shield and enclave memory behave exactly as with the
// originals.
//
// The generators draw class-conditional patterns (a bitmap-font digit
// with jitter and noise for MNIST; per-class color/frequency structure
// for CIFAR-10), so models genuinely learn from them: training accuracy
// is a meaningful metric in the tests and experiments.
package datasets

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/tf"
)

// MNIST geometry.
const (
	MNISTSize    = 28
	MNISTClasses = 10
)

// IDX magic numbers.
const (
	idxMagicImages = 0x00000803
	idxMagicLabels = 0x00000801
)

// digitFont is a 5x7 bitmap font for digits 0-9, the class-conditional
// signal of the synthetic MNIST.
var digitFont = [10][7]string{
	{" ### ", "#   #", "#  ##", "# # #", "##  #", "#   #", " ### "}, // 0
	{"  #  ", " ##  ", "  #  ", "  #  ", "  #  ", "  #  ", " ### "}, // 1
	{" ### ", "#   #", "    #", "   # ", "  #  ", " #   ", "#####"}, // 2
	{" ### ", "#   #", "    #", "  ## ", "    #", "#   #", " ### "}, // 3
	{"   # ", "  ## ", " # # ", "#  # ", "#####", "   # ", "   # "}, // 4
	{"#####", "#    ", "#### ", "    #", "    #", "#   #", " ### "}, // 5
	{" ### ", "#    ", "#    ", "#### ", "#   #", "#   #", " ### "}, // 6
	{"#####", "    #", "   # ", "  #  ", "  #  ", " #   ", " #   "}, // 7
	{" ### ", "#   #", "#   #", " ### ", "#   #", "#   #", " ### "}, // 8
	{" ### ", "#   #", "#   #", " ####", "    #", "    #", " ### "}, // 9
}

// renderDigit draws a digit into a 28x28 byte image with position jitter
// and noise.
func renderDigit(img []byte, digit int, rng *rand.Rand) {
	scale := 3
	ox := 4 + rng.Intn(5) - 2
	oy := 2 + rng.Intn(5) - 2
	for r, row := range digitFont[digit] {
		for c, ch := range row {
			if ch != '#' {
				continue
			}
			for dy := 0; dy < scale; dy++ {
				for dx := 0; dx < scale; dx++ {
					y := oy + r*scale + dy
					x := ox + c*scale + dx
					if y >= 0 && y < MNISTSize && x >= 0 && x < MNISTSize {
						img[y*MNISTSize+x] = byte(200 + rng.Intn(56))
					}
				}
			}
		}
	}
	// Background noise.
	for i := 0; i < 40; i++ {
		img[rng.Intn(len(img))] = byte(rng.Intn(64))
	}
}

// GenerateMNIST writes train and test sets in IDX format under dir:
// train-images-idx3-ubyte, train-labels-idx1-ubyte, t10k-images-idx3-ubyte
// and t10k-labels-idx1-ubyte.
func GenerateMNIST(fsys fsapi.FS, dir string, trainN, testN int, seed int64) error {
	if trainN < 0 || testN < 0 {
		return fmt.Errorf("datasets: negative MNIST example count (train %d, test %d)", trainN, testN)
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	write := func(imgName, lblName string, n int) error {
		images := make([]byte, 16+n*MNISTSize*MNISTSize)
		binary.BigEndian.PutUint32(images[0:], idxMagicImages)
		binary.BigEndian.PutUint32(images[4:], uint32(n))
		binary.BigEndian.PutUint32(images[8:], MNISTSize)
		binary.BigEndian.PutUint32(images[12:], MNISTSize)
		labels := make([]byte, 8+n)
		binary.BigEndian.PutUint32(labels[0:], idxMagicLabels)
		binary.BigEndian.PutUint32(labels[4:], uint32(n))
		for i := 0; i < n; i++ {
			digit := i % MNISTClasses
			labels[8+i] = byte(digit)
			renderDigit(images[16+i*MNISTSize*MNISTSize:16+(i+1)*MNISTSize*MNISTSize], digit, rng)
		}
		if err := fsapi.WriteFile(fsys, dir+"/"+imgName, images); err != nil {
			return err
		}
		return fsapi.WriteFile(fsys, dir+"/"+lblName, labels)
	}
	if err := write("train-images-idx3-ubyte", "train-labels-idx1-ubyte", trainN); err != nil {
		return err
	}
	return write("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte", testN)
}

// LoadMNIST reads an IDX image/label pair and returns images scaled to
// [0,1] with shape [N,28,28,1] plus one-hot labels [N,10].
func LoadMNIST(fsys fsapi.FS, imgPath, lblPath string) (*tf.Tensor, *tf.Tensor, error) {
	imgRaw, err := fsapi.ReadFile(fsys, imgPath)
	if err != nil {
		return nil, nil, err
	}
	lblRaw, err := fsapi.ReadFile(fsys, lblPath)
	if err != nil {
		return nil, nil, err
	}
	if len(imgRaw) < 16 || binary.BigEndian.Uint32(imgRaw) != idxMagicImages {
		return nil, nil, fmt.Errorf("datasets: %q is not an IDX image file", imgPath)
	}
	if len(lblRaw) < 8 || binary.BigEndian.Uint32(lblRaw) != idxMagicLabels {
		return nil, nil, fmt.Errorf("datasets: %q is not an IDX label file", lblPath)
	}
	n := int(binary.BigEndian.Uint32(imgRaw[4:]))
	rows := int(binary.BigEndian.Uint32(imgRaw[8:]))
	cols := int(binary.BigEndian.Uint32(imgRaw[12:]))
	if rows != MNISTSize || cols != MNISTSize {
		return nil, nil, fmt.Errorf("datasets: unexpected image size %dx%d", rows, cols)
	}
	if len(imgRaw) != 16+n*rows*cols {
		return nil, nil, fmt.Errorf("datasets: image file truncated")
	}
	if int(binary.BigEndian.Uint32(lblRaw[4:])) != n || len(lblRaw) != 8+n {
		return nil, nil, fmt.Errorf("datasets: label count mismatch")
	}
	images := tf.NewTensor(tf.Float32, tf.Shape{n, rows, cols, 1})
	for i, b := range imgRaw[16:] {
		images.Floats()[i] = float32(b) / 255
	}
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		labels[i] = int(lblRaw[8+i])
	}
	return images, tf.OneHot(labels, MNISTClasses), nil
}
