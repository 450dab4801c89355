package models

import (
	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/tflite"
)

// TFLiteImage is the TensorFlow Lite application image: the paper
// measures its binary at 1.9 MB.
func TFLiteImage() sgx.Image {
	return sgx.SyntheticImage("tensorflow-lite", tflite.BinarySize, 4<<20)
}

// TFFullBinaryBytes is the full TensorFlow binary size the paper reports
// (87.4 MB).
const TFFullBinaryBytes int64 = 87*1024*1024 + 400*1024

// TFFullHeapBytes models the full TensorFlow runtime's writable heap:
// allocator arenas, graph structures and protobuf state.
const TFFullHeapBytes int64 = 32 << 20

// TFFullImage is the full TensorFlow application image.
func TFFullImage() sgx.Image {
	return sgx.SyntheticImage("tensorflow-full", TFFullBinaryBytes, TFFullHeapBytes)
}
