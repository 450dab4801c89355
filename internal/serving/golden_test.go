package serving

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"github.com/securetf/securetf/internal/tf"
)

// TestWireBytesGolden pins the serving wire format: one request, one OK
// response and one error response must encode to the bytes they
// encoded to when the golden was recorded.
func TestWireBytesGolden(t *testing.T) {
	const golden = "97a1873e78f58bda4313d4034df6e4e1451157bc1f556baa70f0406ad5a3e3e0"
	var buf bytes.Buffer
	if err := WriteRequest(&buf, WireRequest{Model: "mnist", Version: 3, Argmax: true, Input: tf.Fill(tf.Shape{2, 3}, 0.5)}); err != nil {
		t.Fatal(err)
	}
	classes, err := tf.FromInts(tf.Shape{2}, []int32{7, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteResponse(&buf, WireResponse{Status: StatusOK, Version: 3, ServiceVtime: 1500 * time.Microsecond, Output: classes}); err != nil {
		t.Fatal(err)
	}
	if err := WriteResponse(&buf, WireResponse{Status: StatusOverloaded, Message: `model "mnist" queue full (64)`}); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != golden {
		t.Fatalf("serving wire bytes changed: sha256 %s, want %s", got, golden)
	}
}
