package main

import (
	"fmt"
	"math"
	"sort"

	"github.com/dsrhaslab/sdscale/internal/cluster"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// ruleTolerance is the relative distance allowed between a stage's enforced
// limit and the checker's own value. The program sums job demand in another
// order than the checker, so the two differ in the last bits only.
const ruleTolerance = 1e-9

// fleetView is what the checker reads back from a running deployment.
type fleetView struct {
	rules  []wire.Rule
	have   []bool
	epochs []uint64
	leader uint64
}

func readFleet(c *cluster.Cluster, v *fleetView) {
	n := len(c.Stages)
	if len(v.rules) != n {
		v.rules, v.have, v.epochs = make([]wire.Rule, n), make([]bool, n), make([]uint64, n)
	}
	for i, st := range c.Stages {
		v.rules[i], v.have[i] = st.LastRule()
		v.epochs[i] = st.Epoch()
	}
	v.leader = c.Global.Epoch()
}

// waterFill is the checker's own weighted water-filling for one class under
// saturation, all weights 1: jobs are served in order of rising demand, each
// getting the lesser of its demand and an equal share of what is left.
func waterFill(demand []float64, capacity float64) []float64 {
	order := make([]int, len(demand))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return demand[order[a]] < demand[order[b]] })
	alloc := make([]float64, len(demand))
	left := capacity
	for k, j := range order {
		share := left / float64(len(order)-k)
		alloc[j] = math.Min(demand[j], share)
		left -= alloc[j]
	}
	return alloc
}

// verify checks the rules the fleet holds against the demands the benchmark
// itself set: every stage must hold alloc_job × d_stage / D_job per class,
// the rules must sum to the capacity (the regime is saturated), and every
// stage must be fenced at the leader's epoch.
func verify(demand []wire.Rates, jobOf []uint64, jobs int, capacity wire.Rates, v *fleetView) error {
	jobDemand := make([]wire.Rates, jobs)
	for i, d := range demand {
		for c := range d {
			jobDemand[jobOf[i]-1][c] += d[c]
		}
	}
	allocs := make([]wire.Rates, jobs)
	for c := 0; c < int(wire.NumClasses); c++ {
		col := make([]float64, jobs)
		total := 0.0
		for j := range col {
			col[j] = jobDemand[j][c]
			total += col[j]
		}
		if total <= capacity[c] {
			return fmt.Errorf("class %d not saturated: demand %g <= capacity %g", c, total, capacity[c])
		}
		for j, a := range waterFill(col, capacity[c]) {
			allocs[j][c] = a
		}
	}
	var sum wire.Rates
	for i, d := range demand {
		if v.epochs[i] != v.leader {
			return fmt.Errorf("stage index %d fenced at epoch %d, leader at %d", i, v.epochs[i], v.leader)
		}
		if !v.have[i] {
			return fmt.Errorf("stage index %d holds no rule", i)
		}
		r := v.rules[i]
		if r.Action != wire.ActionSetLimit || r.JobID != jobOf[i] {
			return fmt.Errorf("stage index %d holds rule %+v, want a limit for job %d", i, r, jobOf[i])
		}
		j := jobOf[i] - 1
		for c := range d {
			want := allocs[j][c] * d[c] / jobDemand[j][c]
			if !near(r.Limit[c], want) {
				return fmt.Errorf("stage index %d class %d: limit %.12g, want %.12g", i, c, r.Limit[c], want)
			}
			sum[c] += r.Limit[c]
		}
	}
	for c := range sum {
		if !near(sum[c], capacity[c]) {
			return fmt.Errorf("class %d rules sum to %.12g, want capacity %.12g", c, sum[c], capacity[c])
		}
	}
	return nil
}

func near(got, want float64) bool {
	return math.Abs(got-want) <= ruleTolerance*math.Abs(want)
}
