package securetf

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/securetf/securetf/internal/tf/dist"
)

// retire kills worker w: its connections close (the next round's
// deadline evicts it) and the instance moves to the retired list for
// final accounting.
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
// Every live worker then takes its seat again, in id order, before the
// next wave: a hello that came lazily, inside a wave, would arrive after
// the others' pushes, perhaps after their round's deadline.
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
	for w, worker := range j.workers {
		if worker == nil {
			continue
		}
		if err := worker.Redial(s); err != nil {
			return fmt.Errorf("securetf: restart shard %d: worker %d: %w", s, w, err)
		}
	}
	return nil
}

// runWaves trains under the job's fault plan: the rounds run in lockstep
// waves, and kills, rejoins and shard restarts land between waves — on a
// quiescent cluster — so the same plan against the same seed always
// produces the same trajectory. A wave ends when its steps return, and
// a synchronous step returns only once every shard has committed its
// round.
func (j *distJob) runWaves() error {
	cfg, plan := j.cfg, j.cfg.Chaos
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
		}
		rejoins = kept
		// Kills land before the round's step: the worker simply never
		// pushes, and the round's deadline evicts it. A stalled worker's
		// clock moves past the deadline between its compute and its push,
		// a delayed one's before its step (Validate aims both at the live).
		stall := make(map[int]time.Duration)
		delay := make(map[int]time.Duration)
		for _, f := range plan.FaultsAt(round) {
			switch f.Kind {
			case dist.FaultKillWorker:
				j.retire(f.Worker)
				if f.Rejoin > 0 {
					rejoins = append(rejoins, rejoin{f.Worker, round + f.Rejoin})
				}
			case dist.FaultStallWorker:
				stall[f.Worker] = 2 * cfg.RoundTimeout
			case dist.FaultDelayPush:
				delay[f.Worker] += f.Delay
			}
		}

		// The wave: every live worker takes one step concurrently.
		errs := make([]error, cfg.Workers)
		var wg sync.WaitGroup
		for w := range j.workers {
			if j.workers[w] == nil {
				continue
			}
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if errs[w] = j.waveStep(w, delay[w], stall[w]); errs[w] != nil {
					j.abort()
					return
				}
				j.losses[w] = append(j.losses[w], j.workers[w].LastLoss)
			}(w)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
	}
	return nil
}

// waveStep is worker w's share of a wave: its clock moves on by delay
// before the step and by stall between its compute and its push.
func (j *distJob) waveStep(w int, delay, stall time.Duration) error {
	clock, worker := j.workerNodes[w].Clock(), j.workers[w]
	clock.Advance(delay)
	if err := worker.BeginStep(); err != nil {
		return err
	}
	clock.Advance(stall)
	return worker.FinishStep()
}
