package dist

import (
	"bytes"
	"errors"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/securetf/securetf/internal/models"
	"github.com/securetf/securetf/internal/tf"
)

// ckptFixture builds a realistic shard checkpoint from the tiny model's
// variable partition.
func ckptFixture() *Checkpoint {
	return &Checkpoint{
		Shard:  1,
		Shards: 2,
		Rounds: 6,
		Gen:    7,
		Vars:   ShardVars(InitialVars(tinyModel(7).Graph), 1, 2),
	}
}

// TestCheckpointRoundTrip pins the STFD1 container: every header field
// and every variable survives an encode/decode cycle bit-exact.
func TestCheckpointRoundTrip(t *testing.T) {
	c := ckptFixture()
	back, err := DecodeCheckpoint(EncodeCheckpoint(c))
	if err != nil {
		t.Fatal(err)
	}
	if back.Shard != c.Shard || back.Shards != c.Shards || back.Rounds != c.Rounds || back.Gen != c.Gen {
		t.Fatalf("header changed: %+v vs %+v", back, c)
	}
	if len(back.Vars) != len(c.Vars) {
		t.Fatalf("round trip kept %d of %d variables", len(back.Vars), len(c.Vars))
	}
	for name, v := range c.Vars {
		if !tf.AllClose(back.Vars[name], v, 0) {
			t.Fatalf("variable %q changed across the round trip", name)
		}
	}
}

// TestCheckpointDecodeRejectsCorruption spot-checks the decoder guards:
// a truncated, mislabeled or length-lying snapshot must error — never
// panic, never allocate from an attacker-controlled count.
func TestCheckpointDecodeRejectsCorruption(t *testing.T) {
	good := EncodeCheckpoint(ckptFixture())
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("XXXXX"), good[5:]...),
		"truncated":   good[:len(good)/2],
		"header only": good[:29],
	}
	// An inner length that disagrees with the physical payload.
	lied := append([]byte(nil), good...)
	lied[29]++ // innerLen low byte
	cases["inner length lies"] = lied
	// A shard placement outside the claimed cluster.
	misplaced := append([]byte(nil), good...)
	misplaced[5] = 9 // shard = 9 of 2
	cases["shard out of range"] = misplaced
	for name, data := range cases {
		if _, err := DecodeCheckpoint(data); err == nil {
			t.Errorf("%s: corrupt checkpoint accepted", name)
		}
	}
}

// TestCheckpointCadenceAndResume drives the full shard snapshot cycle:
// a 2-worker elastic-less cluster checkpoints every 2 rounds (exactly
// at rounds 2 and 4), and a fresh parameter server resumed from the
// round-2 snapshot — with fresh workers aligned via StartStep — replays
// rounds 3 and 4 onto bit-identical final variables.
func TestCheckpointCadenceAndResume(t *testing.T) {
	var mu sync.Mutex
	var snaps [][]byte
	ps, addr, _ := newTestPS(t, 2, func(cfg *PSConfig) {
		cfg.CheckpointEvery = 2
		cfg.CheckpointWrite = func(data []byte) error {
			mu.Lock()
			defer mu.Unlock()
			snaps = append(snaps, append([]byte(nil), data...))
			return nil
		}
	})
	runRounds := func(ws []*Worker, n int) {
		t.Helper()
		errs := make([]error, len(ws))
		var wg sync.WaitGroup
		for i, w := range ws {
			wg.Add(1)
			go func(i int, w *Worker) {
				defer wg.Done()
				for r := 0; r < n; r++ {
					if errs[i] = w.Step(); errs[i] != nil {
						return
					}
				}
			}(i, w)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("worker %d: %v", i, err)
			}
		}
	}
	w0, _ := newTestWorker(t, 0, addr)
	w1, _ := newTestWorker(t, 1, addr)
	runRounds([]*Worker{w0, w1}, 5)
	if ps.Rounds() != 5 {
		t.Fatalf("Rounds() = %d, want 5", ps.Rounds())
	}
	mu.Lock()
	got := len(snaps)
	mu.Unlock()
	if got != 2 {
		t.Fatalf("wrote %d snapshots over 5 rounds at Every=2, want 2 (rounds 2 and 4)", got)
	}
	ck, err := DecodeCheckpoint(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if ck.Rounds != 2 {
		t.Fatalf("first snapshot at round %d, want 2", ck.Rounds)
	}

	// Continue the original cluster to round 7 — the reference
	// trajectory the resumed one must match.
	runRounds([]*Worker{w0, w1}, 2)
	want := ps.Vars()

	// A fresh shard resumed from the round-2 snapshot, with fresh
	// workers whose StartStep aligns the minibatch schedule, must land
	// on the same variables after the same number of total rounds.
	ps2, addr2, _ := newTestPS(t, 2, func(cfg *PSConfig) { cfg.Resume = ck })
	if ps2.Rounds() != 2 {
		t.Fatalf("resumed shard reports %d rounds, want 2", ps2.Rounds())
	}
	var rws []*Worker
	for id := 0; id < 2; id++ {
		xs, ys := tinyShard(30, int64(100+id))
		w, err := NewWorker(WorkerConfig{
			ID: id, Addrs: []string{addr2}, Model: tinyModel(7),
			XS: xs, YS: ys, BatchSize: 10, StartStep: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		rws = append(rws, w)
	}
	runRounds(rws, 5)
	if ps2.Rounds() != 7 {
		t.Fatalf("resumed shard committed %d rounds, want 7", ps2.Rounds())
	}
	for name, v := range want {
		if !tf.AllClose(ps2.Vars()[name], v, 0) {
			t.Fatalf("variable %q differs between the resumed and uninterrupted trajectories", name)
		}
	}
}

// TestCheckpointWriteFailureAbortsRound pins the durability contract:
// the snapshot lands before the barrier releases, so a failed write
// fails the round instead of letting training advance past an
// unpersisted state.
func TestCheckpointWriteFailureAbortsRound(t *testing.T) {
	_, addr, _ := newTestPS(t, 1, func(cfg *PSConfig) {
		cfg.CheckpointEvery = 1
		cfg.CheckpointWrite = func([]byte) error { return errors.New("volume full") }
	})
	w, _ := newTestWorker(t, 0, addr)
	err := w.Step()
	if err == nil {
		t.Fatal("round committed past a failed checkpoint write")
	}
	if !strings.Contains(err.Error(), "volume full") {
		t.Fatalf("checkpoint failure not surfaced to the worker: %v", err)
	}
}

// TestResumeRejectsMismatchedPlacement checks that PSConfig.Resume
// refuses a snapshot taken for a different cluster shape or variable
// partition.
func TestResumeRejectsMismatchedPlacement(t *testing.T) {
	mismatched := []func(c *Checkpoint){
		func(c *Checkpoint) { c.Shard = 0 },
		func(c *Checkpoint) { c.Shards = 4 },
		func(c *Checkpoint) { delete(c.Vars, "w"); delete(c.Vars, "b") },
		func(c *Checkpoint) {
			for name := range c.Vars {
				c.Vars[name] = tf.NewTensor(tf.Float32, tf.Shape{2, 2})
			}
		},
	}
	for i, mutate := range mismatched {
		c := &Checkpoint{Shard: 1, Shards: 2, Rounds: 3, Gen: 3,
			Vars: ShardVars(InitialVars(tinyModel(7).Graph), 1, 2)}
		mutate(c)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ps, err := NewParameterServer(PSConfig{
			Listener: ln,
			Vars:     InitialVars(tinyModel(7).Graph),
			Workers:  1, LR: 0.5, Shard: 1, Shards: 2,
			Resume: c,
		})
		if err == nil {
			ps.Close()
			t.Errorf("case %d: mismatched checkpoint accepted", i)
		}
		ln.Close()
	}
}

// FuzzCheckpointDecode fuzzes the snapshot parser: arbitrary bytes must
// produce an error or a checkpoint whose collections fit the physical
// payload — never a panic, never an attacker-sized allocation. A
// payload that decodes must survive a re-encode/re-decode round trip.
func FuzzCheckpointDecode(f *testing.F) {
	good := EncodeCheckpoint(ckptFixture())
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[:29])
	flipped := append([]byte(nil), good...)
	flipped[9] ^= 0x40
	f.Add(flipped)
	f.Add(EncodeCheckpoint(&Checkpoint{Shards: 1, Vars: map[string]*tf.Tensor{}}))
	f.Fuzz(func(t *testing.T, payload []byte) {
		c, err := DecodeCheckpoint(payload)
		if err != nil {
			return
		}
		// Each decoded variable costs ≥ 13 bytes of payload (name length,
		// dtype, rank, data length), so the count can never outrun the
		// physical bytes.
		if len(c.Vars)*13 > len(payload) {
			t.Fatalf("decoded %d variables out of a %d-byte payload", len(c.Vars), len(payload))
		}
		back, err := DecodeCheckpoint(EncodeCheckpoint(c))
		if err != nil {
			t.Fatalf("re-decoding an encoded checkpoint failed: %v", err)
		}
		if back.Shard != c.Shard || back.Shards != c.Shards || back.Rounds != c.Rounds || back.Gen != c.Gen || len(back.Vars) != len(c.Vars) {
			t.Fatalf("round trip changed the checkpoint: %+v vs %+v", back, c)
		}
	})
}

// TestEncodeCheckpointAllocatesOnce: a shard snapshot's variables are
// encoded behind its header in one buffer, not into a blob that is then
// copied behind the header, so encoding allocates the snapshot once.
func TestEncodeCheckpointAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation is not what is measured under the race detector")
	}
	c := &Checkpoint{Shard: 1, Shards: 2, Rounds: 3, Gen: 4, Vars: InitialVars(models.MNISTCNN(1).Graph)}
	size := uint64(len(EncodeCheckpoint(c)))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	EncodeCheckpoint(c)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > size+size/8 {
		t.Fatalf("encoding a %d-byte checkpoint allocated %d bytes, want it once", size, got)
	}
}

// TestWarmSnapshotEncodeAllocation is the shard snapshot's ceiling: the
// parameter server encodes each snapshot over the last one's buffer, so
// a warm AppendCheckpoint of the CNN's variables allocates nothing.
func TestWarmSnapshotEncodeAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation is not what is measured under the race detector")
	}
	c := &Checkpoint{Shard: 1, Shards: 2, Rounds: 3, Gen: 4, Vars: InitialVars(models.MNISTCNN(1).Graph)}
	buf := AppendCheckpoint(nil, c)
	want := EncodeCheckpoint(c)
	if !bytes.Equal(buf, want) {
		t.Fatal("AppendCheckpoint into a new buffer differs from EncodeCheckpoint")
	}
	// The least of a few encodes: a goroutine an earlier test left
	// behind may allocate during one.
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		buf = AppendCheckpoint(buf[:0], c)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least != 0 {
		t.Fatalf("a warm encode of a %d-byte snapshot allocated %d bytes, want 0", len(buf), least)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("a warm encode differs from EncodeCheckpoint")
	}
	header := []byte("prefix")
	if got := AppendCheckpoint(header, c); !bytes.Equal(got[len(header):], want) || string(got[:len(header)]) != "prefix" {
		t.Fatal("AppendCheckpoint after a prefix is not the prefix followed by EncodeCheckpoint")
	}
}
