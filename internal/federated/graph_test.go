package federated

import (
	"bytes"
	"fmt"
	"maps"
	"net"
	"slices"
	"strconv"
	"testing"

	"github.com/securetf/securetf/internal/seccrypto"
	"github.com/securetf/securetf/internal/tf/dist"
)

func TestMaskDegree(t *testing.T) {
	for _, tc := range []struct{ n, quorum, want int }{
		{1, 1, 0},
		{2, 2, 1},
		{7, 7, 6}, // 2⌈log₂ 7⌉ = 6: every cohort of up to 7 is complete
		{8, 8, 6},
		{8, 6, 6},
		{8, 2, 7},
		{16, 13, 8},
		{24, 24, 10},
		{64, 51, 14}, // fed-round: 13 can die, 2⌈log₂ 64⌉ = 12
		{64, 64, 12},
		{1024, 1000, 26},
	} {
		d := maskDegree(tc.n, tc.quorum)
		if d != tc.want {
			t.Errorf("maskDegree(%d, %d) = %d, want %d", tc.n, tc.quorum, d, tc.want)
		}
		if d <= tc.n-tc.quorum && tc.quorum > 1 {
			t.Errorf("maskDegree(%d, %d) = %d: a round can lose %d", tc.n, tc.quorum, d, tc.n-tc.quorum)
		}
		if err := checkDegree(tc.n, d); err != nil {
			t.Errorf("a client refuses the coordinator's own degree: %v", err)
		}
	}
}

// adjacency lists every member's neighbours by cohort index.
func adjacency(g pairingGraph) [][]int {
	adj := make([][]int, len(g.pos))
	for i := range adj {
		for j := range adj {
			if g.adjacent(i, j) {
				adj[i] = append(adj[i], j)
			}
		}
	}
	return adj
}

// connectedWithout reports whether the members outside removed are
// connected to each other.
func connectedWithout(adj [][]int, removed []bool) bool {
	seen := slices.Clone(removed)
	start := slices.Index(seen, false)
	if start < 0 {
		return true
	}
	seen[start] = true
	stack := []int{start}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, j := range adj[i] {
			if !seen[j] {
				seen[j] = true
				stack = append(stack, j)
			}
		}
	}
	return !slices.Contains(seen, false)
}

// removeNearest returns a removal of member m's k nearest ring places,
// alternating sides — the cut that leaves m the fewest neighbours.
func removeNearest(g pairingGraph, m, k int) []bool {
	n := len(g.pos)
	at := make([]int, n) // ring place → member
	for i, p := range g.pos {
		at[p] = i
	}
	removed := make([]bool, n)
	for step := 1; k > 0; step++ {
		for _, side := range []int{1, -1} {
			if k > 0 {
				removed[at[(g.pos[m]+side*step+n)%n]] = true
				k--
			}
		}
	}
	return removed
}

// TestMaskGraph holds the pairing graph to what the survivors-only-sum
// guarantee rests on: it is symmetric and d-regular (so pair masks
// cancel), drawn afresh each round but the same on every member, the
// complete graph at d = n−1, and d-connected — no d−1 removed members
// split the rest.
func TestMaskGraph(t *testing.T) {
	cohort := cohortOf(64)
	seed := roundPatternSeed(3, 0)
	for n := 2; n <= 64; n++ {
		for d := 1; d < n; d++ {
			if d%2 == 1 && n%2 == 1 {
				continue
			}
			g := newPairingGraph(n, seed, d)
			lists := make([][]uint32, n)
			for i := range n {
				lists[i] = g.neighbours(cohort[:n], i)
				if len(lists[i]) != d {
					t.Fatalf("n %d, d %d: member %d has %d neighbours", n, d, i, len(lists[i]))
				}
			}
			for i := range n {
				for _, j := range lists[i] {
					if !slices.Contains(lists[j], uint32(i)) {
						t.Fatalf("n %d, d %d: %d lists %d, which does not list it", n, d, i, j)
					}
				}
				if rest := slices.Delete(slices.Clone(cohort[:n]), i, i+1); d == n-1 && !slices.Equal(lists[i], rest) {
					t.Fatalf("n %d, d %d: member %d's neighbours %v are not the rest of the cohort", n, d, i, lists[i])
				}
			}
		}
	}

	g := newPairingGraph(64, seed, 14)
	if again := newPairingGraph(64, seed, 14); !slices.Equal(g.pos, again.pos) {
		t.Fatal("the same round drew two ring orders")
	}
	for r := uint64(1); r < 5; r++ {
		if other := newPairingGraph(64, roundPatternSeed(3, r), 14); slices.Equal(g.pos, other.pos) {
			t.Fatalf("round %d drew round 0's ring order", r)
		}
	}

	// d-connectivity, exhaustively for small cohorts. H_{1,n} is a
	// matching, connected only at n = 2, the one cohort whose members a
	// client lets pair with one peer.
	for n := 2; n <= 12; n++ {
		for d := 1; d < n; d++ {
			if d%2 == 1 && n%2 == 1 || d == 1 && n > 2 {
				continue
			}
			adj := adjacency(newPairingGraph(n, seed, d))
			for set := range 1 << n {
				removed := make([]bool, n)
				count := 0
				for i := range n {
					if set&(1<<i) != 0 {
						removed[i] = true
						count++
					}
				}
				if count == d-1 && !connectedWithout(adj, removed) {
					t.Fatalf("n %d, d %d: removing %v disconnects the rest", n, d, removed)
				}
			}
		}
	}
	// ... and for fed-round's cohort and a large one, by seeded draws and
	// by the cut around one member.
	for _, tc := range []struct{ n, d, draws int }{{64, 14, 500}, {1024, 20, 50}} {
		g := newPairingGraph(tc.n, seed, tc.d)
		adj := adjacency(g)
		prg := seccrypto.NewPRG(seccrypto.HKDF([]byte("removals"), "test", fmt.Sprint(tc.n)))
		for draw := range tc.draws {
			removed := make([]bool, tc.n)
			for _, i := range prg.Perm(tc.n)[:tc.d-1] {
				removed[i] = true
			}
			if !connectedWithout(adj, removed) {
				t.Fatalf("n %d, d %d: draw %d disconnects the rest", tc.n, tc.d, draw)
			}
		}
		for m := range tc.n {
			removed := removeNearest(g, m, tc.d-1)
			if !connectedWithout(adj, removed) {
				t.Fatalf("n %d, d %d: removing member %d's %d nearest ring places disconnects it", tc.n, tc.d, m, tc.d-1)
			}
		}
		if removed := removeNearest(g, 0, tc.d); connectedWithout(adj, removed) {
			t.Fatalf("n %d, d %d: removing all of member 0's neighbours left it connected", tc.n, tc.d)
		}
	}
}

// TestClientRefusesThinGraph is the hostile coordinator at the client:
// an assignment whose degree is below 2⌈log₂ n⌉ (or below n−1 for a
// cohort of up to 7), above n−1, or of no regular graph is refused, as
// is an unmask request for a member the client did not pair with, or
// for every member it did — that would strip its whole mask.
func TestClientRefusesThinGraph(t *testing.T) {
	c := &Client{cfg: ClientConfig{ID: 5, Secret: testSecret}}
	assign := func(n int, step uint64) error {
		return c.pair(&dist.Message{Kind: dist.MsgFedRound, Round: 2, Seed: 9, Clients: cohortOf(n), Step: step})
	}
	for _, tc := range []struct {
		n    int
		step uint64
	}{
		{64, 11}, {64, 0}, {64, 64}, {64, 1 << 40}, // 2⌈log₂ 64⌉ = 12
		{7, 5}, {6, 4}, // small cohorts are complete
		{33, 13}, // odd degree on an odd cohort
		{5, 4},   // client 5 is not in cohort 0…4
	} {
		if err := assign(tc.n, tc.step); err == nil {
			t.Errorf("cohort of %d at degree %d: assignment accepted", tc.n, tc.step)
		}
		if c.peers != nil {
			t.Fatalf("cohort of %d at degree %d: a refused assignment left peers %v", tc.n, tc.step, c.peers)
		}
	}
	for _, tc := range []struct {
		n    int
		step uint64
	}{{64, 12}, {64, 13}, {64, 63}, {7, 6}, {8, 6}} {
		if err := assign(tc.n, tc.step); err != nil {
			t.Errorf("cohort of %d at degree %d refused: %v", tc.n, tc.step, err)
		}
		if len(c.peers) != int(tc.step) || slices.Contains(c.peers, 5) {
			t.Errorf("cohort of %d at degree %d: peers %v", tc.n, tc.step, c.peers)
		}
	}

	if err := assign(64, 14); err != nil {
		t.Fatal(err)
	}
	peers := slices.Clone(c.peers)
	var stranger uint32
	for _, id := range cohortOf(64) {
		if id != 5 && !slices.Contains(peers, id) {
			stranger = id
			break
		}
	}
	for _, tc := range []struct {
		name  string
		round uint64
		dead  []uint32
	}{
		{"every neighbour", 2, peers},
		{"every neighbour, one twice", 2, append([]uint32{peers[0]}, peers...)},
		{"a member it did not pair with", 2, []uint32{peers[0], stranger}},
		{"itself", 2, []uint32{5}},
		{"another round", 3, peers[:1]},
	} {
		// A request the guards let through would reach the (absent) link.
		if err := c.reveal(&dist.Message{Kind: dist.MsgFedUnmask, Round: tc.round, Clients: tc.dead}); err == nil {
			t.Errorf("%s: unmask request answered", tc.name)
		}
	}
}

// TestRevealFollowsTheGraph is the hostile survivor at the coordinator
// on a sparse cohort (32 members at degree 10, quorum 30): a survivor is
// asked for, and must reveal, exactly its dead neighbours' seeds. A
// reveal that names a member it did not pair with or misses a dead
// neighbour keeps nothing; a survivor with no dead neighbour reveals
// nothing; and the round commits once every survivor that owes a reveal
// has made it.
func TestRevealFollowsTheGraph(t *testing.T) {
	const n, quorum = 32, 30
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Listener: ln, Vars: dist.InitialVars(tinyModel(7).Graph),
		Clients: n, Quorum: quorum, Rounds: 1, Codec: dist.Int8Compression(), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if asg := coord.poll(&dist.Message{Kind: dist.MsgFedPoll, Worker: 0}); asg.Kind != dist.MsgFedRound || asg.Step != 10 {
		t.Fatalf("the assignment names degree %d, want 10: %+v", asg.Step, asg)
	}
	// Client 0 survives with one dead neighbour a; b, also dead, is not
	// its neighbour.
	g := coord.graph
	a := slices.IndexFunc(cohortOf(n), func(id uint32) bool { return g.adjacent(0, int(id)) })
	b := slices.IndexFunc(cohortOf(n), func(id uint32) bool { return id != 0 && !g.adjacent(0, int(id)) })
	codec := coord.codec
	for id := range uint32(n) {
		if id == uint32(a) || id == uint32(b) {
			continue
		}
		grads := make(map[string][]byte)
		for i, name := range coord.names {
			grads[name] = testBlob(codec, make([]uint64, len(coord.acc[i])/codec.width()))
		}
		if ack := coord.push(&dist.Message{Kind: dist.MsgFedPush, Worker: id, Grads: grads}); !ack.OK {
			t.Fatalf("client %d's upload refused: %s", id, ack.Err)
		}
	}
	if got := coord.owed[0]; !slices.Equal(got, []uint32{uint32(a)}) {
		t.Fatalf("client 0 owes seeds for %v, want [%d]", got, a)
	}
	z := slices.IndexFunc(cohortOf(n), func(id uint32) bool {
		return int(id) != a && int(id) != b && !g.adjacent(int(id), a) && !g.adjacent(int(id), b)
	})
	if z < 0 || coord.owed[uint32(z)] != nil {
		t.Fatalf("no survivor without a dead neighbour (%d), or it owes %v", z, coord.owed[uint32(z)])
	}
	if req := coord.poll(&dist.Message{Kind: dist.MsgFedPoll, Worker: 0}); req.Kind != dist.MsgFedUnmask || !slices.Equal(req.Clients, []uint32{uint32(a)}) {
		t.Fatalf("client 0's poll: %+v, want an unmask request for [%d]", req, a)
	}
	if req := coord.poll(&dist.Message{Kind: dist.MsgFedPoll, Worker: uint32(z)}); req.Kind != dist.MsgFedRound || !req.Closed {
		t.Fatalf("client %d's poll: %+v, want a wait", z, req)
	}

	before := make([][]byte, len(coord.acc))
	for i, acc := range coord.acc {
		before[i] = bytes.Clone(acc)
	}
	statsBefore := coord.Stats()
	seed := func(id, peer int) []byte {
		key := roundKey(pairSeed(testSecret, uint32(id), uint32(peer)), coord.round)
		return key[:]
	}
	key := func(id int) string { return strconv.Itoa(id) }
	for _, tc := range []struct {
		name  string
		id    int
		grads map[string][]byte
	}{
		{"a non-neighbour instead of the dead neighbour", 0, map[string][]byte{key(b): seed(0, b)}},
		{"a non-neighbour besides the dead neighbour", 0, map[string][]byte{key(a): seed(0, a), key(b): seed(0, b)}},
		{"a live member", 0, map[string][]byte{key(z): seed(0, z)}},
		{"no seeds", 0, nil},
		{"from a survivor with no dead neighbour", z, map[string][]byte{key(a): seed(z, a)}},
		{"nothing from a survivor with no dead neighbour", z, nil},
	} {
		ack := coord.seeds(&dist.Message{Kind: dist.MsgFedSeeds, Worker: uint32(tc.id), Grads: tc.grads})
		if ack.OK || ack.Err == "" {
			t.Errorf("%s: ack %+v, want a refusal", tc.name, ack)
		}
		if len(coord.unmask) != 0 || coord.Stats() != statsBefore {
			t.Fatalf("%s: a refused reveal kept %d streams, counters %+v", tc.name, len(coord.unmask), coord.Stats())
		}
	}

	owing := slices.Sorted(maps.Keys(coord.owed))
	if len(owing) >= quorum {
		t.Fatalf("all %d survivors owe a reveal on a sparse graph", len(owing))
	}
	for k, id := range owing {
		for i := range before {
			if !bytes.Equal(coord.acc[i], before[i]) {
				t.Fatalf("the accumulator of %q changed with %d of %d reveals in", coord.names[i], k, len(owing))
			}
		}
		grads := make(map[string][]byte)
		for _, dead := range coord.owed[id] {
			grads[key(int(dead))] = seed(int(id), int(dead))
		}
		if ack := coord.seeds(&dist.Message{Kind: dist.MsgFedSeeds, Worker: id, Grads: grads}); !ack.OK {
			t.Fatalf("client %d's reveal refused: %s", id, ack.Err)
		}
	}
	if got := coord.Stats(); got.Rounds != 1 || got.Reveals != len(owing) {
		t.Fatalf("after %d reveals: %+v, want the round committed", len(owing), got)
	}
}
