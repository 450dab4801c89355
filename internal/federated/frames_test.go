package federated

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"testing"

	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/tf/dist"
	"github.com/securetf/securetf/internal/vtime"
)

// TestHostileFramesDoNotGrowTheCoordinatorsFrames: the coordinator's
// connections share one list of frame buffers, and a buffer goes back
// to it only with a frame that was read whole, decoded, and is no larger
// than a well-formed exchange of the job carries. A peer that declares a
// 64 MiB frame and hangs up, a peer that sends 1 MiB that does not
// decode, and a peer whose 32 MiB hello decodes but is refused, as a
// client id outside the population, leave the list holding no more
// bytes than before; and the coordinator goes on to serve a real
// client's round.
func TestHostileFramesDoNotGrowTheCoordinatorsFrames(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Listener: ln, Vars: dist.InitialVars(tinyModel(7).Graph), Clients: 1, Quorum: 1, Rounds: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	dial := func() *net.TCPConn {
		t.Helper()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn.(*net.TCPConn)
	}
	// hangUp stops writing and waits for the coordinator to hang up: by
	// then the connection's serve loop has returned, and has given back
	// or dropped every frame it took. It reports what was left to read.
	hangUp := func(conn *net.TCPConn) int64 {
		t.Helper()
		conn.CloseWrite()
		n, err := io.Copy(io.Discard, conn)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	// Well-formed exchanges leave their frames in the list: a hello the
	// handshake accepts, and one it refuses.
	clock, params := &vtime.Clock{}, sgx.DefaultParams()
	greet := func(hello *dist.Message, ok bool) {
		t.Helper()
		conn := dial()
		if _, err := dist.Send(conn, clock, params, hello); err != nil {
			t.Fatal(err)
		}
		if resp, err := dist.Receive(conn, clock, params); err != nil || resp.OK != ok {
			t.Fatalf("hello from client %d: %+v, %v; want OK %v", hello.Worker, resp, err, ok)
		}
		hangUp(conn)
	}
	greet(&dist.Message{Kind: dist.MsgHello, Shards: 1, Policy: maskedPolicy(false)}, true)
	greet(&dist.Message{Kind: dist.MsgHello, Worker: 1, Shards: 1, Policy: maskedPolicy(false)}, false)
	before := coord.frames.Bytes()
	if before == 0 {
		t.Fatal("a whole exchange gave no frame back to the coordinator's list")
	}

	for name, frame := range map[string][]byte{
		"a 64 MiB frame cut short":   append(binary.LittleEndian.AppendUint32(nil, 64<<20), "and then nothing"...),
		"1 MiB that does not decode": append(binary.LittleEndian.AppendUint32(nil, 1<<20), bytes.Repeat([]byte{0xff}, 1<<20)...),
	} {
		conn := dial()
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		if n := hangUp(conn); n != 0 {
			t.Fatalf("%s: the coordinator answered %d bytes; want a hang-up", name, n)
		}
		if after := coord.frames.Bytes(); after > before {
			t.Fatalf("%s: the coordinator's list grew from %d to %d bytes", name, before, after)
		}
	}

	// A frame that decodes, from a peer the handshake refuses.
	greet(&dist.Message{Kind: dist.MsgHello, Worker: 1, Shards: 1, Policy: maskedPolicy(false), Err: strings.Repeat("x", 32<<20)}, false)
	if after := coord.frames.Bytes(); after > before {
		t.Fatalf("a refused 32 MiB hello: the coordinator's list grew from %d to %d bytes", before, after)
	}

	xs, ys := tinyShard(30, 100)
	c, err := NewClient(ClientConfig{
		Addr: ln.Addr().String(), Plan: planOf(t, tinyModel(7)), XS: xs, YS: ys,
		BatchSize: 10, LocalSteps: 1, LocalLR: 0.1, Population: 1, Secret: testSecret,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got := coord.Stats(); got.Rounds != 1 || got.Accepted != 1 {
		t.Fatalf("after the hostile peers the coordinator committed %d rounds of %d uploads, want 1 of 1", got.Rounds, got.Accepted)
	}
}
