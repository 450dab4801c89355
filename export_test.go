package securetf

import "slices"

// EvalBlock is Accuracy's block of rows, for the tests at its edges.
const EvalBlock = evalBlock

// TrainDistributedNodes is TrainDistributed that also returns the
// enclave counters of the job's nodes, shards first.
func TrainDistributedNodes(cfg DistTrainConfig) (*DistTrainResult, []EnclaveStats, error) {
	j, err := newDistJob(cfg)
	if err != nil {
		return nil, nil, err
	}
	defer j.close()
	res, err := j.run()
	if err != nil {
		return nil, nil, err
	}
	var stats []EnclaveStats
	for _, c := range slices.Concat(j.shardNodes, j.workerNodes) {
		stats = append(stats, c.EnclaveStats())
	}
	return res, stats, nil
}
