package dist

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"
)

// FaultKind names one kind of injected failure.
type FaultKind uint8

const (
	// FaultKillWorker kills worker Worker before it begins global round
	// Step: its connections close, the round's deadline evicts it and
	// the barrier commits from the survivors. When Rejoin > 0 a
	// fresh worker with the same identity (and the same session seed, so
	// trajectories stay reproducible) rejoins Rejoin rounds later.
	FaultKillWorker FaultKind = iota + 1
	// FaultStallWorker advances worker Worker's virtual clock by twice
	// the round timeout between its compute and its push of round Step,
	// so the push lands after the round's deadline: an eviction and
	// rejoin without the worker ever dying, the classic straggler.
	FaultStallWorker
	// FaultDelayPush advances worker Worker's virtual clock by Delay
	// before round Step: a slow worker. One that still makes the
	// round's deadline stretches the round; one that lands past it is
	// evicted, as a stalled one is, and rejoins.
	FaultDelayPush
	// FaultRestartShard kills PS shard Shard after it has committed Step
	// rounds and restarts it from its latest checkpoint; Step must land
	// on a checkpoint boundary, so the resumed trajectory is
	// bit-identical to an uninterrupted one.
	FaultRestartShard
)

func (k FaultKind) String() string {
	switch k {
	case FaultKillWorker:
		return "kill"
	case FaultStallWorker:
		return "stall"
	case FaultDelayPush:
		return "delay"
	case FaultRestartShard:
		return "restart"
	default:
		return fmt.Sprintf("FaultKind(%d)", uint8(k))
	}
}

// Fault is one scheduled failure. Which fields matter depends on Kind;
// Step is always the global training round (0-based) the fault fires
// at.
type Fault struct {
	Kind   FaultKind
	Worker int // FaultKillWorker, FaultStallWorker, FaultDelayPush
	Shard  int // FaultRestartShard
	Step   int
	// Rejoin is how many rounds after the kill a replacement worker
	// rejoins (FaultKillWorker only); 0 means never.
	Rejoin int
	// Delay is the virtual-time penalty of a FaultDelayPush.
	Delay time.Duration
}

// FaultPlan is a deterministic schedule of failures, replayed on the
// virtual-time turnstile: the same plan against the same seed yields
// the same trajectory, so chaos runs are assertable to the bit.
type FaultPlan struct {
	Faults []Fault
}

// ParseFaultPlan parses the textual plan grammar, semicolon-separated:
//
//	kill:w<W>@r<R>[+rejoin<N>]   kill worker W before round R, rejoin N rounds later
//	stall:w<W>@r<R>              stall worker W's push of round R past the deadline
//	delay:w<W>@r<R>+<duration>   advance worker W's clock by duration before round R
//	restart:ps<K>@r<R>           restart shard K from checkpoint after R committed rounds
func ParseFaultPlan(s string) (*FaultPlan, error) {
	plan := &FaultPlan{}
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f, err := parseFault(part)
		if err != nil {
			return nil, fmt.Errorf("dist: fault %q: %w", part, err)
		}
		plan.Faults = append(plan.Faults, f)
	}
	if len(plan.Faults) == 0 {
		return nil, fmt.Errorf("dist: fault plan %q schedules nothing", s)
	}
	return plan, nil
}

func parseFault(s string) (Fault, error) {
	kindStr, rest, ok := strings.Cut(s, ":")
	if !ok {
		return Fault{}, fmt.Errorf("want <kind>:<target>@r<round>, got no colon")
	}
	target, at, ok := strings.Cut(rest, "@r")
	if !ok {
		return Fault{}, fmt.Errorf("want <kind>:<target>@r<round>, got no @r")
	}
	switch kindStr {
	case "kill":
		w, err := parseTarget(target, "w")
		if err != nil {
			return Fault{}, err
		}
		round, rejoin := at, 0
		if r, tail, ok2 := strings.Cut(at, "+rejoin"); ok2 {
			n, err := strconv.Atoi(tail)
			if err != nil || n < 1 {
				return Fault{}, fmt.Errorf("bad rejoin offset %q", tail)
			}
			round, rejoin = r, n
		}
		step, err := parseRound(round)
		if err != nil {
			return Fault{}, err
		}
		return Fault{Kind: FaultKillWorker, Worker: w, Step: step, Rejoin: rejoin}, nil
	case "stall":
		w, err := parseTarget(target, "w")
		if err != nil {
			return Fault{}, err
		}
		step, err := parseRound(at)
		if err != nil {
			return Fault{}, err
		}
		return Fault{Kind: FaultStallWorker, Worker: w, Step: step}, nil
	case "delay":
		w, err := parseTarget(target, "w")
		if err != nil {
			return Fault{}, err
		}
		round, durStr, ok2 := strings.Cut(at, "+")
		if !ok2 {
			return Fault{}, fmt.Errorf("delay wants @r<round>+<duration>")
		}
		step, err := parseRound(round)
		if err != nil {
			return Fault{}, err
		}
		d, err := time.ParseDuration(durStr)
		if err != nil || d <= 0 {
			return Fault{}, fmt.Errorf("bad delay duration %q", durStr)
		}
		return Fault{Kind: FaultDelayPush, Worker: w, Step: step, Delay: d}, nil
	case "restart":
		k, err := parseTarget(target, "ps")
		if err != nil {
			return Fault{}, err
		}
		step, err := parseRound(at)
		if err != nil {
			return Fault{}, err
		}
		return Fault{Kind: FaultRestartShard, Shard: k, Step: step}, nil
	default:
		return Fault{}, fmt.Errorf("unknown fault kind %q", kindStr)
	}
}

func parseTarget(s, prefix string) (int, error) {
	tail, ok := strings.CutPrefix(s, prefix)
	if !ok {
		return 0, fmt.Errorf("want target %s<id>, got %q", prefix, s)
	}
	n, err := strconv.Atoi(tail)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad target id %q", tail)
	}
	return n, nil
}

func parseRound(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad round %q", s)
	}
	return n, nil
}

// String renders the plan back in the ParseFaultPlan grammar, so plans
// round-trip through flags and logs.
func (p *FaultPlan) String() string {
	parts := make([]string, 0, len(p.Faults))
	for _, f := range p.Faults {
		switch f.Kind {
		case FaultKillWorker:
			s := fmt.Sprintf("kill:w%d@r%d", f.Worker, f.Step)
			if f.Rejoin > 0 {
				s += fmt.Sprintf("+rejoin%d", f.Rejoin)
			}
			parts = append(parts, s)
		case FaultStallWorker:
			parts = append(parts, fmt.Sprintf("stall:w%d@r%d", f.Worker, f.Step))
		case FaultDelayPush:
			parts = append(parts, fmt.Sprintf("delay:w%d@r%d+%s", f.Worker, f.Step, f.Delay))
		case FaultRestartShard:
			parts = append(parts, fmt.Sprintf("restart:ps%d@r%d", f.Shard, f.Step))
		}
	}
	return strings.Join(parts, ";")
}

// Validate checks the plan against a cluster shape: every target must
// exist, every round must land inside the job, restarts must land on
// checkpoint boundaries, a stall or delay must aim at a worker alive at
// its round, and at least one worker must survive every round (an
// all-dead round can never commit).
func (p *FaultPlan) Validate(workers, shards, rounds, checkpointEvery int) error {
	alive := make([]bool, workers)
	for i := range alive {
		alive[i] = true
	}
	rejoinAt := make(map[int][]int) // round -> worker ids rejoining before it
	byRound := make(map[int][]Fault)
	for _, f := range p.Faults {
		switch f.Kind {
		case FaultKillWorker, FaultStallWorker, FaultDelayPush:
			if f.Worker < 0 || f.Worker >= workers {
				return fmt.Errorf("dist: fault targets worker %d of a %d-worker job", f.Worker, workers)
			}
		case FaultRestartShard:
			if f.Shard < 0 || f.Shard >= shards {
				return fmt.Errorf("dist: fault targets shard %d of a %d-shard cluster", f.Shard, shards)
			}
			if checkpointEvery <= 0 {
				return fmt.Errorf("dist: shard restart at round %d needs checkpointing enabled", f.Step)
			}
			if f.Step <= 0 || f.Step%checkpointEvery != 0 {
				return fmt.Errorf("dist: shard restart at round %d is not a checkpoint boundary (every %d)", f.Step, checkpointEvery)
			}
		default:
			return fmt.Errorf("dist: unknown fault kind %d", f.Kind)
		}
		if f.Kind == FaultDelayPush && f.Delay <= 0 {
			return fmt.Errorf("dist: delay fault at round %d has no duration", f.Step)
		}
		if f.Step < 0 || f.Step >= rounds {
			return fmt.Errorf("dist: fault at round %d of a %d-round job", f.Step, rounds)
		}
		byRound[f.Step] = append(byRound[f.Step], f)
	}
	for r := 0; r < rounds; r++ {
		for _, w := range rejoinAt[r] {
			alive[w] = true
		}
		for _, f := range byRound[r] {
			if f.Kind != FaultKillWorker {
				continue
			}
			if !alive[f.Worker] {
				return fmt.Errorf("dist: kill at round %d targets worker %d, already dead", f.Step, f.Worker)
			}
			alive[f.Worker] = false
			if f.Rejoin > 0 {
				rejoinAt[r+f.Rejoin] = append(rejoinAt[r+f.Rejoin], f.Worker)
			}
		}
		// A round's kills land before its step, so they count here.
		for _, f := range byRound[r] {
			if (f.Kind == FaultStallWorker || f.Kind == FaultDelayPush) && !alive[f.Worker] {
				return fmt.Errorf("dist: %v at round %d targets worker %d, dead at that round", f.Kind, f.Step, f.Worker)
			}
		}
		n := 0
		for _, a := range alive {
			if a {
				n++
			}
		}
		if n == 0 {
			return fmt.Errorf("dist: no worker survives round %d — the job can never commit it", r)
		}
	}
	return nil
}

// FaultsAt returns the faults scheduled for the given global round, in
// plan order.
func (p *FaultPlan) FaultsAt(round int) []Fault {
	var out []Fault
	for _, f := range p.Faults {
		if f.Step == round {
			out = append(out, f)
		}
	}
	return out
}

// HasKind reports whether the plan schedules any fault of kind k.
func (p *FaultPlan) HasKind(k FaultKind) bool {
	for _, f := range p.Faults {
		if f.Kind == k {
			return true
		}
	}
	return false
}

// RandomFaultPlan draws a reproducible churn schedule: one to
// workers/2 distinct workers are killed at distinct interior rounds,
// each rejoining one or two rounds later. The same seed always yields
// the same plan.
func RandomFaultPlan(seed int64, workers, rounds int) *FaultPlan {
	rng := rand.New(rand.NewSource(seed))
	kills := 1
	if workers > 2 {
		kills += rng.Intn(workers / 2)
	}
	perm := rng.Perm(workers)
	plan := &FaultPlan{}
	for i := 0; i < kills && i < len(perm); i++ {
		step := 1
		if rounds > 3 {
			step += rng.Intn(rounds - 2)
		}
		plan.Faults = append(plan.Faults, Fault{
			Kind:   FaultKillWorker,
			Worker: perm[i],
			Step:   step,
			Rejoin: 1 + rng.Intn(2),
		})
	}
	sort.SliceStable(plan.Faults, func(i, j int) bool { return plan.Faults[i].Step < plan.Faults[j].Step })
	return plan
}
