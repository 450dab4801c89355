package securetf

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/securetf/securetf/internal/tf/dist"
)

// chaosWaveTimeout is the wall-clock hang guard on every chaos wait: a
// wave that never finishes or a round the shards never commit fails the
// run explicitly instead of hanging the test suite.
const chaosWaveTimeout = 60 * time.Second

// chaosReconnect is the redial window workers get when the fault plan
// restarts parameter-server shards mid-job.
const chaosReconnect = 5 * time.Second

// retire kills worker w: its connections close (the elastic barrier
// evicts it on the next round timeout) and the instance moves to the
// retired list for final accounting.
func (j *distJob) retire(w int) {
	if j.workers[w] == nil {
		return
	}
	j.retired = append(j.retired, j.workers[w])
	j.workers[w].Close()
	j.workers[w] = nil
}

// restartShard kills PS shard s and brings it back from its latest
// checkpoint on a fresh container: same address, same options, same
// snapshot volume and key. The new node attests to the job's CAS for
// the key, and the CAS refuses a snapshot older than the last one it
// recorded. The cluster sits at `round` committed rounds, which must
// be exactly what the checkpoint recorded — restarts land only on
// checkpoint boundaries, so the resumed trajectory is bit-identical.
// Workers redial lazily through their Reconnect window.
func (j *distJob) restartShard(s, round int) error {
	j.shards[s].Close()
	base := j.shards[s].Stats()
	j.statsBase[s].Evictions += base.Evictions
	j.statsBase[s].Rejoins += base.Rejoins
	j.statsBase[s].ShrunkRounds += base.ShrunkRounds
	j.shardNodes[s].Close()
	c, err := j.launchNode(fmt.Sprintf("ps-shard-%d-r%d", s, round), true)
	if err != nil {
		return fmt.Errorf("securetf: restart shard %d: %w", s, err)
	}
	j.shardNodes[s] = c
	ck, err := j.loadCheckpoint(c, s)
	if err != nil {
		return fmt.Errorf("securetf: restart shard %d: %w", s, err)
	}
	if ck.Rounds != round {
		return fmt.Errorf("securetf: restart shard %d: checkpoint is at round %d, cluster at %d (restart off a checkpoint boundary)", s, ck.Rounds, round)
	}
	opts := append(j.psOpts(c, s), WithResume(ck))
	ps, _, err := StartParameterServer(c, j.addrs[s], j.vars, j.cfg.Workers, j.cfg.LR, opts...)
	if err != nil {
		return fmt.Errorf("securetf: restart shard %d: %w", s, err)
	}
	j.shards[s] = ps
	return nil
}

// waitCommitted polls until every shard has committed n rounds, with
// the wall-clock hang guard — the "zero hangs" assertion every chaos
// wait runs under.
func (j *distJob) waitCommitted(n int) error {
	//securetf:allow nowallclock the chaos hang guard is wall by definition: a hang is a real bug, nothing virtual advances
	deadline := time.Now().Add(chaosWaveTimeout)
	for {
		ok := true
		for _, ps := range j.shards {
			if ps.Rounds() < n {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		//securetf:allow nowallclock wall deadline check for the hang guard above
		if time.Now().After(deadline) {
			return fmt.Errorf("securetf: chaos run stuck: shards never committed round %d", n)
		}
		//securetf:allow nowallclock real poll interval while waiting on real goroutines
		time.Sleep(2 * time.Millisecond)
	}
}

// runWaves trains under the job's fault plan: the rounds run in lockstep
// waves, and kills, rejoins and shard restarts land between waves — on a
// quiescent cluster — so the same plan against the same seed always
// produces the same trajectory.
func (j *distJob) runWaves() error {
	cfg, plan := j.cfg, j.cfg.Chaos
	defer func() {
		for _, worker := range j.workers {
			if worker != nil {
				worker.Close()
			}
		}
	}()
	alive := make([]bool, cfg.Workers)
	for w := range j.workers {
		var err error
		if j.xs[w], j.ys[w], err = cfg.ShardData(w); err != nil {
			return err
		}
		if j.workers[w], err = j.startWorker(w, j.startRounds); err != nil {
			return err
		}
		alive[w] = true
	}

	type rejoin struct{ worker, at int }
	var rejoins []rejoin
	for round := j.startRounds; round < cfg.Rounds; round++ {
		// Shard restarts scheduled for "after `round` committed rounds"
		// run first, on the quiescent cluster.
		for _, f := range plan.FaultsAt(round) {
			if f.Kind == dist.FaultRestartShard {
				if err := j.restartShard(f.Shard, round); err != nil {
					return err
				}
			}
		}
		// Replacement workers due this round rejoin while nothing is in
		// flight, so every shard folds them back immediately.
		kept := rejoins[:0]
		for _, rj := range rejoins {
			if rj.at > round {
				kept = append(kept, rj)
				continue
			}
			worker, err := j.startWorker(rj.worker, round)
			if err != nil {
				return fmt.Errorf("securetf: rejoin worker %d at round %d: %w", rj.worker, round, err)
			}
			j.workers[rj.worker] = worker
			alive[rj.worker] = true
		}
		rejoins = kept
		// Kills land before the round's step: the worker simply never
		// pushes, and the elastic barrier evicts it on the timeout.
		stall := make(map[int]bool)
		delay := make(map[int]time.Duration)
		for _, f := range plan.FaultsAt(round) {
			switch f.Kind {
			case dist.FaultKillWorker:
				if !alive[f.Worker] {
					continue
				}
				j.retire(f.Worker)
				alive[f.Worker] = false
				if f.Rejoin > 0 {
					rejoins = append(rejoins, rejoin{f.Worker, round + f.Rejoin})
				}
			case dist.FaultStallWorker:
				stall[f.Worker] = true
			case dist.FaultDelayPush:
				delay[f.Worker] += f.Delay
			}
		}

		// The wave: every live worker takes one step concurrently.
		errs := make([]error, cfg.Workers)
		var wg sync.WaitGroup
		for w := range j.workers {
			if !alive[w] {
				continue
			}
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// A slow worker: the extra virtual time stretches the
				// round for everyone blocked on the barrier.
				j.workerNodes[w].Clock().Advance(delay[w])
				if errs[w] = j.waveStep(j.workers[w], round, stall[w]); errs[w] == nil {
					j.losses[w] = append(j.losses[w], j.workers[w].LastLoss)
				}
			}(w)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		//securetf:allow nowallclock wall watchdog on a real goroutine wave; all virtual clocks are parked if this fires
		case <-time.After(chaosWaveTimeout):
			j.abort()
			<-done
			return fmt.Errorf("securetf: chaos run stuck: round %d wave never finished", round)
		}
		if err := errors.Join(errs...); err != nil {
			j.abort()
			return err
		}
		if err := j.waitCommitted(round + 1); err != nil {
			return err
		}
	}
	return nil
}

// waveStep is one worker's share of a wave. A stalled worker is the
// classic straggler: it computes, then holds the push until the shards
// have committed the round without it. The late push bounces off the
// moved-on barrier (eviction) and the worker rejoins in place.
func (j *distJob) waveStep(worker *TrainingWorker, round int, stall bool) error {
	if !stall {
		return worker.Step()
	}
	if err := worker.BeginStep(); err != nil {
		return err
	}
	if err := j.waitCommitted(round + 1); err != nil {
		return err
	}
	return worker.FinishStep()
}
