package suite

import securetf "github.com/securetf/securetf"

// mnist generates a seeded MNIST set in memory and loads one split.
func mnist(rec *Recorder, parent int64, trainN, testN int, seed int64, test bool) (xs, ys *securetf.Tensor, err error) {
	fs := securetf.NewMemFS()
	if err = rec.Do(parent, "datasets", "GenerateMNIST", nil, func() error {
		return securetf.GenerateMNIST(fs, "d", trainN, testN, seed)
	}); err != nil {
		return nil, nil, err
	}
	img, lbl := "d/train-images-idx3-ubyte", "d/train-labels-idx1-ubyte"
	if test {
		img, lbl = "d/t10k-images-idx3-ubyte", "d/t10k-labels-idx1-ubyte"
	}
	err = rec.Do(parent, "datasets", "LoadMNIST", nil, func() error {
		xs, ys, err = securetf.LoadMNIST(fs, img, lbl)
		return err
	})
	return xs, ys, err
}

// accuracy installs vars into a fresh, unmetered replica of model and
// evaluates it on the test set.
func accuracy(model securetf.Model, vars map[string]*securetf.Tensor, xs, ys *securetf.Tensor) (float64, error) {
	m, err := securetf.OpenModel(nil, model, nil, 0, 0)
	if err != nil {
		return 0, err
	}
	defer m.Close()
	if err := m.SetVariables(vars); err != nil {
		return 0, err
	}
	return m.Accuracy(xs, ys)
}
