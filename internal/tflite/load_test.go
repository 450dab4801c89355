package tflite

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// weightModel is a one-op model over a single Float32 weight of the
// given raw bytes, shaped [rows, len(raw)/4/rows].
func weightModel(raw []byte, rows int) *Model {
	cols := len(raw) / 4 / rows
	return &Model{
		Tensors: []TensorSpec{
			{Name: "in", Type: TypeFloat32, Shape: []int{-1, rows}, Buffer: -1},
			{Name: "w", Type: TypeFloat32, Shape: []int{rows, cols}, Buffer: 0},
			{Name: "out", Type: TypeFloat32, Shape: []int{-1, cols}, Buffer: -1},
		},
		Buffers: [][]byte{raw},
		Ops:     []OpSpec{{Code: OpFullyConnected, Inputs: []int{0, 1}, Outputs: []int{2}}},
		Inputs:  []int{0},
		Outputs: []int{2},
	}
}

// TestLoadModelAllocation is the model load's ceiling: Unmarshal keeps
// the weight buffers as sub-slices of the bytes it parses, and
// AllocateTensors decodes each into its tensor, so loading an 8 MiB
// model allocates its float32 weights once and little beside them — at
// most 1.1× their bytes, where cloning every buffer first took about 2×.
func TestLoadModelAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation is not what is measured under the race detector")
	}
	raw := make([]byte, 8<<20)
	rand.New(rand.NewSource(1)).Read(raw)
	blob := weightModel(raw, 1024).Marshal()
	if len(blob) != cap(blob) {
		t.Fatalf("Marshal sized its buffer %d for %d bytes", cap(blob), len(blob))
	}
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := Unmarshal(blob)
		if err != nil {
			t.Fatal(err)
		}
		ip, err := NewInterpreter(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := ip.AllocateTensors(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(len(raw)) * 11 / 10; least > limit {
		t.Fatalf("loading a model of %d weight bytes allocated %d bytes, want at most %d", len(raw), least, limit)
	}
	t.Logf("loading a model of %d weight bytes allocated %d bytes", len(raw), least)
}

// TestWeightDecodeMatchesLoop holds AllocateTensors' bulk decode (one
// copy on a little-endian target) to the per-element loop it replaced,
// bit for bit: NaN payloads of both signs and both kinds, ±0, ±Inf,
// subnormals and random words, from a weight buffer at whatever offset
// of the model's bytes Unmarshal left it.
func TestWeightDecodeMatchesLoop(t *testing.T) {
	words := []uint32{
		0x7fc00000, 0x7fc00001, 0xffc12345, 0x7f800001, 0xff800fff, // NaNs
		0x00000000, 0x80000000, // ±0
		0x7f800000, 0xff800000, // ±Inf
		0x00000001, 0x807fffff, 0x00400000, // subnormals
		0x3f800000, 0xc2f6e979,
	}
	rng := rand.New(rand.NewSource(2))
	for len(words) < 3*67 {
		words = append(words, rng.Uint32())
	}
	raw := make([]byte, 4*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint32(raw[4*i:], w)
	}
	m, err := Unmarshal(weightModel(raw, 3).Marshal())
	if err != nil {
		t.Fatal(err)
	}
	ip, err := NewInterpreter(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := ip.AllocateTensors(); err != nil {
		t.Fatal(err)
	}
	got := ip.weights[1].Floats()
	if len(got) != len(words) {
		t.Fatalf("decoded %d weights, want %d", len(got), len(words))
	}
	loaded := m.Buffers[0]
	for j, v := range got {
		want := math.Float32frombits(binary.LittleEndian.Uint32(loaded[j*4:]))
		if math.Float32bits(v) != math.Float32bits(want) {
			t.Errorf("weight %d decoded to %#08x, the loop to %#08x", j, math.Float32bits(v), math.Float32bits(want))
		}
	}
}
