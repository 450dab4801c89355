package securetf_test

import (
	"math"
	"slices"
	"testing"
	"time"

	securetf "github.com/securetf/securetf"
)

// TestServeSteadyReplay is serve-steady's row of the replay table
// (ROADMAP item 31): 20 unbatched requests for the densenet stand-in,
// served twice in one process, each time by a fresh SconeHW node with one
// replica. The outputs must be bit-equal. The virtual service times are
// not yet known to repeat (serve-steady's op_p25_vms has read three
// values), so they are only compared: under -v the test logs the first
// request whose ServiceVtime differs between the runs, and by how much,
// which shows whether the first Invoke's set-up (the layout, the arena's
// registration) is where the runs part (open: item 31).
func TestServeSteadyReplay(t *testing.T) {
	const requests = 20
	model, _ := servingModel()
	spec := securetf.PaperModels()[0]
	serve := func() (outs [][]uint32, vtimes []time.Duration) {
		c := launchNode(t, "replay-node")
		gw := serveDensenet(t, c, securetf.ServingConfig{Replicas: 1, QueueCap: 16}, model, "densenet")
		conn, err := securetf.DialModelServer(c, securetf.ModelClientConfig{Addr: gw.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		for i := range requests {
			out, _, vt, err := conn.InferTimed("densenet", 0, securetf.RandomImageInput(spec, 1, int64(i)))
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			bits := make([]uint32, 0, len(out.Floats()))
			for _, v := range out.Floats() {
				bits = append(bits, math.Float32bits(v))
			}
			outs, vtimes = append(outs, bits), append(vtimes, vt)
		}
		return outs, vtimes
	}
	outs1, vt1 := serve()
	outs2, vt2 := serve()
	for i := range requests {
		if !slices.Equal(outs1[i], outs2[i]) {
			t.Errorf("request %d: the second node's output differs from the first's", i)
		}
	}
	for i := range requests {
		if vt1[i] != vt2[i] {
			t.Logf("request %d is the first whose ServiceVtime differs: %v, then %v (%+v; open: item 31)", i, vt1[i], vt2[i], vt2[i]-vt1[i])
			return
		}
	}
	t.Logf("all %d ServiceVtimes repeat, request 0's %v and request 1's %v (open: item 31, not yet asserted)", requests, vt1[0], vt1[1])
}
