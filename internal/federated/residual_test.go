package federated

import (
	"maps"
	"math"
	"net"
	"slices"
	"testing"

	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/tf/dist"
	"github.com/securetf/securetf/internal/vtime"
)

// TestRefusedUploadKeepsResidual runs one unmasked client through three
// rounds against a scripted coordinator that accepts the first upload,
// refuses the second as straggling and accepts the third. Every round
// assigns the same variables and the same coordinate pattern, so the
// local delta is the same each time. The client writes the residual an
// upload leaves behind over its delta; the test replays the rounds with
// a separate buffer for it, and holds the uploads and the committed
// residual to that replay bit for bit: the refused round commits
// nothing, and each accepted one commits exactly what the separate
// buffer held.
func TestRefusedUploadKeepsResidual(t *testing.T) {
	for _, codec := range []dist.Compression{dist.Int8Compression(), dist.TopKCompression(0.5)} {
		t.Run(codec.String(), func(t *testing.T) { checkResidualRounds(t, codec) })
	}
}

func checkResidualRounds(t *testing.T, codec dist.Compression) {
	accept := []bool{true, false, true}
	m := tinyModel(7)
	snapshot := dist.InitialVars(m.Graph)
	names := slices.Sorted(maps.Keys(snapshot))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	uploads := make(chan map[string][]byte, len(accept))
	go func() {
		defer close(uploads)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		l := dist.NewLink(conn, nil)
		defer l.Close()
		meter := sgx.NewMeter(&vtime.Clock{}, sgx.DefaultParams())
		for round := 0; ; {
			msg, err := l.Receive(meter)
			if err != nil {
				return
			}
			var resp *dist.Message
			switch {
			case msg.Kind == dist.MsgHello:
				resp = &dist.Message{Kind: dist.MsgManifest, OK: true, Names: names}
			case msg.Kind == dist.MsgFedPoll && round == len(accept):
				resp = &dist.Message{Kind: dist.MsgAck, Err: trainingCompleteErr}
			case msg.Kind == dist.MsgFedPoll:
				resp = &dist.Message{Kind: dist.MsgFedRound, OK: true, Round: uint64(round), Seed: 1, Vars: snapshot}
			case msg.Kind == dist.MsgFedPush:
				blobs := make(map[string][]byte, len(msg.Grads))
				for name, blob := range msg.Grads {
					blobs[name] = slices.Clone(blob)
				}
				uploads <- blobs
				resp = &dist.Message{Kind: dist.MsgAck, OK: accept[round], Closed: !accept[round]}
				round++
			default:
				return
			}
			if _, err := l.Send(meter, resp); err != nil {
				return
			}
		}
	}()
	xs, ys := tinyShard(20, 3)
	c, err := NewClient(ClientConfig{
		Addr: ln.Addr().String(), Plan: planOf(t, m), Population: 1, Unmasked: true,
		XS: xs, YS: ys, BatchSize: 10, LocalSteps: 2, LocalLR: 0.1, Codec: codec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	var got []map[string][]byte
	for blobs := range uploads {
		got = append(got, blobs)
	}
	if len(got) != len(accept) {
		t.Fatalf("the client uploaded %d times, want %d", len(got), len(accept))
	}
	if st := c.Stats(); st.Applied != 2 || st.Refusals != 1 {
		t.Fatalf("the client counted %d accepted and %d refused uploads, want 2 and 1", st.Applied, st.Refusals)
	}

	rc := ringCodec{c.cfg.Codec}
	for i, name := range c.gradNames {
		v := &c.vars[i]
		// Each round starts from the snapshot and trains the same steps,
		// so the last round's variables give every round's delta.
		delta := make([]float32, len(v.residual))
		for j, now := range v.value.Floats() {
			delta[j] = now - snapshot[name].Floats()[j]
		}
		coords := rc.coords(1, name, len(delta))
		residual := make([]float32, len(delta))
		for r, ok := range accept {
			payload := make([]byte, rc.blobSize(wordCount(coords, len(delta)))-updateHeader)
			next := make([]float32, len(delta))
			rc.encodeVar(payload, delta, residual, next, coords)
			if !slices.Equal(got[r][name][updateHeader:], payload) {
				t.Fatalf("round %d's upload of %q differs from the separate-buffer encode", r, name)
			}
			if ok {
				residual = next
			}
		}
		if !slices.ContainsFunc(residual, func(f float32) bool { return f != 0 }) {
			t.Fatalf("%q carries no residual, so the rounds test nothing", name)
		}
		for j := range residual {
			if math.Float32bits(v.residual[j]) != math.Float32bits(residual[j]) {
				t.Fatalf("%q's committed residual %d is %v, the separate-buffer replay %v", name, j, v.residual[j], residual[j])
			}
		}
	}
}
