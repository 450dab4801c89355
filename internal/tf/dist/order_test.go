package dist

import (
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/securetf/securetf/internal/device"
	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/vtime"
)

// TestShardServesInSendOrder: a synchronous shard without a round
// timeout serves its workers' frames in the order they were sent in
// virtual time, whatever order the host delivers them in. Three workers
// of a two-shard cluster train four rounds, each worker's compute
// charging it a different virtual time, twice: once with the workers'
// wall delays before each pull and push growing with their id, once
// shrinking, so their frames reach the shards in opposite wall orders.
// Every node's clock, and every loss, must come out the same to the
// nanosecond and the bit.
func TestShardServesInSendOrder(t *testing.T) {
	const shards, workers, rounds = 2, 3, 4
	run := func(wallDelay func(id int) time.Duration) []string {
		t.Helper()
		params := sgx.DefaultParams()
		shardClocks := make([]*vtime.Clock, shards)
		addrs := make([]string, shards)
		for s := range shardClocks {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			shardClocks[s] = &vtime.Clock{}
			ps, err := NewParameterServer(PSConfig{
				Listener: ln, Vars: InitialVars(tinyModel(7).Graph), Workers: workers, LR: 0.5,
				Shard: s, Shards: shards, Meter: sgx.NewMeter(shardClocks[s], params),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer ps.Close()
			addrs[s] = ln.Addr().String()
		}
		ws := make([]*Worker, workers)
		clocks := make([]*vtime.Clock, workers)
		for id := range ws { // one after another, as a job seats them
			clocks[id] = &vtime.Clock{}
			meter := sgx.NewMeter(clocks[id], params)
			xs, ys := tinyShard(40, int64(100+id))
			w, err := NewWorker(WorkerConfig{
				ID: id, Addrs: addrs, Model: tinyModel(7), XS: xs, YS: ys, BatchSize: 10,
				Device: device.NewCPU("w", meter, 1, 1.0), Meter: meter,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			ws[id] = w
		}
		losses := make([][]float64, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for id, w := range ws {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range rounds {
					time.Sleep(wallDelay(id))
					if errs[id] = w.BeginStep(); errs[id] != nil {
						return
					}
					clocks[id].Advance(time.Duration(id+1) * 3 * time.Millisecond)
					time.Sleep(wallDelay(id))
					if errs[id] = w.FinishStep(); errs[id] != nil {
						return
					}
					losses[id] = append(losses[id], w.LastLoss)
				}
			}()
		}
		wg.Wait()
		var out []string
		for id, err := range errs {
			if err != nil {
				t.Fatalf("worker %d: %v", id, err)
			}
			out = append(out, fmt.Sprintf("worker %d: clock %d, losses %v", id, clocks[id].Now(), losses[id]))
		}
		for s, c := range shardClocks {
			out = append(out, fmt.Sprintf("shard %d: clock %d", s, c.Now()))
		}
		return out
	}
	rising := run(func(id int) time.Duration { return time.Duration(id) * 4 * time.Millisecond })
	falling := run(func(id int) time.Duration { return time.Duration(workers-1-id) * 4 * time.Millisecond })
	for i := range rising {
		if rising[i] != falling[i] {
			t.Errorf("wall delays rising with the worker id: %s\nfalling: %s", rising[i], falling[i])
		}
	}
}

// TestLinkReadsTheStampFirst: next reads a frame up to its stamp, rest
// reads it on, whatever pieces the transport cuts it into; a frame too
// short to hold a stamp is refused as soon as its header is read.
func TestLinkReadsTheStampFirst(t *testing.T) {
	meter := sgx.NewMeter(&vtime.Clock{}, sgx.DefaultParams())
	sent := &message{Kind: msgPull, Worker: 3, Round: 7, Err: "x"}
	frame := NewLink(nil, nil).encode(sent)
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	binary.LittleEndian.PutUint64(frame[5:stampEnd], 12345)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		for i := range frame { // one byte a write
			if _, err := a.Write(frame[i : i+1]); err != nil {
				return
			}
		}
		a.Write([]byte{5, 0, 0, 0, 1, 2, 3, 4, 5}) // a 5-byte frame
	}()
	l := NewLink(b, nil)
	stamp, err := l.next()
	if err != nil || stamp != 12345 {
		t.Fatalf("next: stamp %d, %v; want 12345", stamp, err)
	}
	got, err := l.rest(meter)
	if err != nil || got.Kind != msgPull || got.Worker != 3 || got.Round != 7 || got.Err != "x" {
		t.Fatalf("rest: %+v, %v", got, err)
	}
	if now := meter.Clock().Now(); now != meter.Arrival(12345) {
		t.Errorf("clock at %d after the frame, want its arrival %d", now, meter.Arrival(12345))
	}
	if _, err := l.next(); err == nil || !strings.Contains(err.Error(), "frame of 5 bytes") {
		t.Errorf("a 5-byte frame: %v", err)
	}
}
