package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"github.com/dsrhaslab/sdscale/internal/cluster"
	"github.com/dsrhaslab/sdscale/internal/controlalg"
	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
	"github.com/dsrhaslab/sdscale/internal/workload"
)

// baseDemand is every stage's demand before any disturbance: the paper's
// stress workload. Capacity is half of it per stage, so PSFA always runs
// in its saturated regime.
var (
	baseDemand       = wire.Rates{1000, 100}
	capacityPerStage = wire.Rates{500, 50}
)

// spec is one workload's deployment and disturbance shape.
type spec struct {
	name        string
	stages      int
	jobs        int
	aggregators int // > 0 selects the hierarchical topology, full cycles
	// jobsPerRound jobs are disturbed per round, pushesPerJob stages each;
	// zero means no disturbance (the full-cycle workload).
	jobsPerRound int
	pushesPerJob int
	durable      bool
}

// workloads are the benchmark's workloads. The full-cycle one carries the
// fan-out path (wire, rpc, simnet, stage handlers, aggregator
// pre-aggregation) and leaves the incremental machinery idle; the bursty
// ones bypass the full collect and carry push ingest, dirty sets, compute
// over the report cache and delta enforcement; the durable one adds the
// write-ahead store on that same path. A gain on one path should show on its
// workload and not on the other.
var workloads = []spec{
	{name: "hier-full-10k", stages: 10000, jobs: 16, aggregators: 4},
	{name: "flat-bursty-10k", stages: 10000, jobs: 16, jobsPerRound: 8, pushesPerJob: 125},
	{name: "flat-bursty-durable-10k", stages: 10000, jobs: 16, jobsPerRound: 8, pushesPerJob: 125, durable: true},
}

func lookupWorkload(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

func (s spec) pushesPerRound() int { return s.jobsPerRound * s.pushesPerJob }

func (s spec) capacity() wire.Rates { return capacityPerStage.Scale(float64(s.stages)) }

// config is the deployment: simnet without propagation delay, connection
// cap or processing-cost model, so the numbers measure the program and not
// a modelled wire. The bursty workloads park the stage push loops (an
// hour-long sampling period) because a stage samples on its own node in a
// real deployment; disturbances arrive only through PushDelta. The report
// floor and staleness bound are an hour too, so no round re-collects a
// quiet stage and the controller's cache holds exactly what was pushed.
func (s spec) config(alg controlalg.Algorithm, dataDir string) cluster.Config {
	cfg := cluster.Config{
		Stages:    s.stages,
		Jobs:      s.jobs,
		Workload:  workload.Constant{Rates: baseDemand},
		Capacity:  s.capacity(),
		Algorithm: alg,
		Net:       simnet.Config{MaxConnsPerHost: -1},
		DataDir:   dataDir,
	}
	if s.aggregators > 0 {
		cfg.Topology = cluster.Hierarchical
		cfg.Aggregators = s.aggregators
		return cfg
	}
	cfg.Topology = cluster.Flat
	cfg.Incremental = true
	cfg.DeltaEnforcement = true
	cfg.IncrementalFloor = time.Hour
	cfg.StaleAfter = time.Hour
	cfg.PushInterval = time.Hour
	cfg.PushFloor = time.Hour
	return cfg
}

// push is one disturbance: stage index and the factor its demand is set to,
// relative to baseDemand.
type push struct {
	idx int
	f   float64
}

// disturber draws each round's pushes from the seed: jobsPerRound distinct
// jobs, pushesPerJob distinct stages in each, and a factor in [0.6, 1.4)
// per stage. Every job's demand stays above its fair share (half the
// base), so the regime stays saturated whatever the draw.
type disturber struct {
	s     spec
	rng   *rand.Rand
	byJob [][]int // stage indices per job, permuted in place by draws
	jobs  []int
	buf   []push
}

func newDisturber(s spec, seed uint64, jobOf []uint64) *disturber {
	d := &disturber{s: s, rng: rand.New(rand.NewPCG(seed, 0x5d5c7a1e)), byJob: make([][]int, s.jobs)}
	for i, j := range jobOf {
		d.byJob[j-1] = append(d.byJob[j-1], i)
	}
	d.jobs = make([]int, s.jobs)
	for i := range d.jobs {
		d.jobs[i] = i
	}
	return d
}

// pick moves k distinct elements, drawn uniformly, to the front of xs.
func (d *disturber) pick(xs []int, k int) []int {
	for i := 0; i < k; i++ {
		j := i + d.rng.IntN(len(xs)-i)
		xs[i], xs[j] = xs[j], xs[i]
	}
	return xs[:k]
}

// next returns the next round's pushes; the slice is reused by the next call.
func (d *disturber) next() []push {
	d.buf = d.buf[:0]
	for _, j := range d.pick(d.jobs, d.s.jobsPerRound) {
		for _, idx := range d.pick(d.byJob[j], d.s.pushesPerJob) {
			d.buf = append(d.buf, push{idx: idx, f: 0.6 + 0.8*d.rng.Float64()})
		}
	}
	return d.buf
}

// lastJobs reports, per job index, whether the last draw disturbed it.
func (d *disturber) lastJobs() []bool {
	out := make([]bool, d.s.jobs)
	for _, j := range d.jobs[:d.s.jobsPerRound] {
		out[j] = true
	}
	return out
}
