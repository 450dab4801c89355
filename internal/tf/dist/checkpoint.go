package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/wire"
)

// ckptMagic prefixes a shard checkpoint: a dist header (shard placement,
// committed-round count, barrier generation) followed by the variables
// in the tf.SaveCheckpoint format.
const ckptMagic = "STFD1"

// maxCkptShards bounds the shard count a checkpoint may claim — far
// above any real cluster, low enough that a bit-flipped header cannot
// masquerade as a sane placement.
const maxCkptShards = 1 << 20

// Checkpoint is one parameter-server shard's restart state: everything
// a fresh ParameterServer needs (via PSConfig.Resume) to continue a
// killed shard exactly where the snapshot left off.
type Checkpoint struct {
	// Shard and Shards record the snapshot's cluster placement; Resume
	// rejects a checkpoint taken for a different placement.
	Shard  int
	Shards int
	// Rounds is the shard's committed-round count at the snapshot.
	Rounds int
	// Gen is the barrier generation (sync) or variable version (async)
	// the next exchange continues from.
	Gen uint64
	// Vars is the shard's variable partition at the snapshot.
	Vars map[string]*tf.Tensor
}

// EncodeCheckpoint serializes c: the dist header followed by the
// variables in the tf.SaveCheckpoint format (STFC1), so shard
// snapshots and session checkpoints share one tensor encoding. It is
// AppendCheckpoint into a new buffer.
func EncodeCheckpoint(c *Checkpoint) []byte { return AppendCheckpoint(nil, c) }

// ckptHeader is the dist header's length, up to the variables.
const ckptHeader = len(ckptMagic) + 4 + 4 + 8 + 8 + 4

// AppendCheckpoint appends EncodeCheckpoint's encoding of c to dst. The
// variables are encoded in place behind the header: dst grows at most
// twice, for the header and then to the end, and into a dst with room,
// such as the last snapshot's buffer, a shard's snapshot allocates
// nothing.
func AppendCheckpoint(dst []byte, c *Checkpoint) []byte {
	w := wire.Writer{Buf: append(slices.Grow(dst, ckptHeader), ckptMagic...)}
	w.U32(uint32(c.Shard))
	w.U32(uint32(c.Shards))
	w.U64(uint64(c.Rounds))
	w.U64(c.Gen)
	at := len(w.Buf)
	w.U32(0) // filled in below
	w.Buf = tf.AppendVarCheckpoint(w.Buf, c.Vars)
	binary.LittleEndian.PutUint32(w.Buf[at:], uint32(len(w.Buf)-at-4))
	return w.Buf
}

// DecodeCheckpoint reverses EncodeCheckpoint. The input is untrusted —
// a snapshot read back through the shielded FS is authenticated, but
// the decoder still validates every length against the remaining
// payload, so a truncated or bit-flipped file errors instead of
// panicking or over-allocating.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	r := wire.NewReader(data)
	if string(r.Next(len(ckptMagic))) != ckptMagic {
		return nil, errors.New("dist: bad checkpoint magic")
	}
	shard, shards, rounds, gen, inner := r.U32(), r.U32(), r.U64(), r.U64(), r.Bytes()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("dist: checkpoint: %w", err)
	}
	if shards < 1 || shards > maxCkptShards || shard >= shards {
		return nil, fmt.Errorf("dist: checkpoint places shard %d in a cluster of %d", shard, shards)
	}
	if rounds > 1<<31 {
		return nil, fmt.Errorf("dist: checkpoint claims %d committed rounds", rounds)
	}
	vars, err := tf.DecodeVarCheckpoint(inner)
	if err != nil {
		return nil, fmt.Errorf("dist: checkpoint variables: %w", err)
	}
	return &Checkpoint{
		Shard:  int(shard),
		Shards: int(shards),
		Rounds: int(rounds),
		Gen:    gen,
		Vars:   vars,
	}, nil
}
