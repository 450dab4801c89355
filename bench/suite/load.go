package suite

import (
	"math"
	"sort"
	"sync"
	"time"
)

// closedLoop runs ops ops from Clients goroutines: each sends its next op
// only after the previous one completed. do performs op number op on
// the client's own connection and reports the virtual latency the system
// attributes to it and whether the output was right; an error counts as a
// failed op. The returned phase has the load-side fields filled in.
func closedLoop(rec *Recorder, ops int, do func(client, op int) (time.Duration, bool, error)) *phase {
	per := ops / Clients
	type sample struct {
		wall, virt time.Duration
		done       time.Duration // since the phase started
		ok         bool
	}
	samples := make([][]sample, Clients)
	for c := range samples {
		samples[c] = make([]sample, 0, per)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				op := k*Clients + c
				sp := rec.Start(0, int64(op), "load", "op", nil)
				t0 := time.Now()
				virt, ok, err := do(c, op)
				now := time.Now()
				samples[c] = append(samples[c], sample{now.Sub(t0), virt, now.Sub(start), ok && err == nil})
				sp.End()
			}
		}(c)
	}
	wg.Wait()
	ph := &phase{wall: time.Since(start), accuracy: math.NaN()}
	var done []time.Duration
	for _, cs := range samples {
		for _, s := range cs {
			ph.attempted++
			if !s.ok {
				ph.failed++
				continue
			}
			ph.ops++
			done = append(done, s.done)
			ph.latWall = append(ph.latWall, s.wall)
			ph.latVirt = append(ph.latVirt, s.virt)
		}
	}
	ph.chunks = chunksOf(done)
	return ph
}

// rateChunks is how many equal-count pieces a measured phase is cut into;
// ops_per_s is the median piece's rate.
const rateChunks = 20

// chunksOf cuts the ops, by completion time, into rateChunks pieces of
// equal count.
func chunksOf(done []time.Duration) []chunk {
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	n := rateChunks
	if len(done) < n {
		n = len(done)
	}
	var out []chunk
	var from time.Duration
	for k, last := 1, 0; k <= n; k++ {
		end := k * len(done) / n
		out = append(out, chunk{ops: end - last, wall: done[end-1] - from})
		from, last = done[end-1], end
	}
	return out
}
