package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/dsrhaslab/sdscale/internal/cluster"
	"github.com/dsrhaslab/sdscale/internal/controlalg"
	"github.com/dsrhaslab/sdscale/internal/telemetry"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// warmupRounds run before the timed window: they fill the report cache,
// grow the cycle arenas and, in the bursty workloads, settle the delta
// enforcement cache. They count towards set-up time.
const warmupRounds = 5

// bench is one built deployment and the benchmark's own model of it.
type bench struct {
	s      spec
	c      *cluster.Cluster
	tr     *tracer
	jobOf  []uint64
	demand []wire.Rates // the demand the benchmark set, per stage
	dist   *disturber
	view   fleetView
}

// roundResult is one closed-loop round; it failed if err is set.
type roundResult struct {
	b      telemetry.Breakdown
	pushed int
	err    error
}

// setup builds the deployment, attaches every stage and runs the warm-up
// rounds. It returns the elapsed time, which is the benchmark's set-up time.
func setup(s spec, seed uint64, dir string, tr *tracer) (*bench, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	var alg controlalg.Algorithm
	if tr != nil {
		alg = timedAlgorithm{controlalg.PSFA{}, tr}
	}
	c, err := cluster.Build(s.config(alg, dir))
	if err != nil {
		return nil, 0, fmt.Errorf("build %s: %w", s.name, err)
	}
	b := &bench{s: s, c: c, tr: tr, demand: make([]wire.Rates, len(c.Stages))}
	b.jobOf = make([]uint64, len(c.Stages))
	for i, st := range c.Stages {
		b.jobOf[i] = st.Info().JobID
		b.demand[i] = baseDemand
	}
	b.dist = newDisturber(s, seed, b.jobOf)
	for i := 0; i < warmupRounds; i++ {
		// The first round is the cold full collect; it also completes every
		// connection's codec negotiation, which pushes need.
		if r := b.round(i > 0); r.err != nil {
			b.close()
			return nil, 0, fmt.Errorf("warm-up round %d of %s failed: %v (pushed %d)", i, s.name, r.err, r.pushed)
		}
	}
	return b, time.Since(start), nil
}

// round runs one closed-loop round: with disturb set in the bursty
// workloads, the seed's next disturbance is pushed and ingested first; then
// one control round runs. A round fails when RunControlCycle errs, a push reaches no parent, or the
// round claims another dirty set than the one pushed.
func (b *bench) round(disturb bool) roundResult {
	root := b.tr.begin("round", 0)
	defer b.tr.end(root)
	var r roundResult
	sent := true
	if disturb && b.s.pushesPerRound() > 0 {
		sp := b.tr.begin("stage.PushDelta", root)
		pushes := b.dist.next()
		for _, p := range pushes {
			if !b.c.Stages[p.idx].PushDelta(p.f) {
				sent = false
			}
			b.demand[p.idx] = wire.Rates{baseDemand[0] * p.f, baseDemand[1] * p.f}
		}
		b.tr.end(sp)
		r.pushed = len(pushes)
		sp = b.tr.begin("ingest.wait", root)
		err := waitIdle()
		b.tr.end(sp)
		if err != nil {
			r.err = err
			return r
		}
	}
	sp := b.tr.begin("cluster.RunControlCycle", root)
	b.tr.setRound(sp)
	r.b, r.err = b.c.RunControlCycle(context.Background())
	b.tr.setRound(0)
	b.tr.end(sp)
	if r.err == nil && !sent {
		r.err = fmt.Errorf("a push reached no parent")
	}
	if dirty := b.c.Global.Pipeline().DirtyChildren(); r.err == nil && r.pushed > 0 && dirty != int64(r.pushed) {
		r.err = fmt.Errorf("round claimed %d dirty stages, %d pushed", dirty, r.pushed)
	}
	return r
}

// check runs the independent checker against the fleet's current rules.
func (b *bench) check() error {
	sp := b.tr.begin("check", 0)
	defer b.tr.end(sp)
	readFleet(b.c, &b.view)
	return verify(b.demand, b.jobOf, b.s.jobs, b.s.capacity(), &b.view)
}

func (b *bench) close() { b.c.Close() }

// The ingest barrier counts the process as idle once, in each of
// idleWindows consecutive windows of at least idleWindow, it used less than
// idleShare of one CPU and, at the window's end, at most one of its threads
// (the barrier's own) was running, runnable or in uninterruptible sleep.
// Both tests are needed: process CPU time misses a thread whose core the
// host has taken away (it stays runnable while using no CPU), and a thread
// state is one instant. A barrier that has not seen the process idle within
// idleTimeout fails the round.
const (
	idleWindow  = time.Millisecond
	idleShare   = 0.3
	idleWindows = 3
	idleTimeout = 2 * time.Second
)

// waitIdle is the ingest barrier. The program exposes no count of ingested
// pushes, so the benchmark waits until the process has gone quiet: the
// controller's read loops have decoded every pushed delta into the dirty
// set (the round checks this afterwards through DirtyChildren) and no
// background work is left to overlap the timed round.
func waitIdle() error {
	quiet := 0
	start := time.Now()
	cpu, wall := processCPU(), start
	for quiet < idleWindows {
		if wall.Sub(start) > idleTimeout {
			return fmt.Errorf("ingest barrier: process not idle after %v", idleTimeout)
		}
		time.Sleep(idleWindow)
		busy, err := settledBusyThreads()
		if err != nil {
			return err
		}
		c, w := processCPU(), time.Now()
		if busy <= 1 && float64(c-cpu) < idleShare*float64(w.Sub(wall)) {
			quiet++
		} else {
			quiet = 0
		}
		cpu, wall = c, w
	}
	return nil
}

// settledBusyThreads is busyThreads once the threads that woke the barrier
// have gone back to sleep: the wake-up can leave an idle thread spinning for
// work for some microseconds, while a thread with pending work stays
// running. The count is taken up to five times, 50µs apart, and the first
// count of at most one wins.
func settledBusyThreads() (int, error) {
	var busy int
	for i := 0; i < 5; i++ {
		var err error
		if busy, err = busyThreads(); err != nil || busy <= 1 {
			return busy, err
		}
		// Spin rather than sleep: sleeping would wake this goroutine
		// through another thread again.
		for t := time.Now(); time.Since(t) < 50*time.Microsecond; {
		}
	}
	return busy, nil
}

// busyThreads counts the process's threads that are running, runnable or in
// uninterruptible sleep (state R or D); the caller's own is one of them.
func busyThreads() (int, error) {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return 0, fmt.Errorf("ingest barrier: %w", err)
	}
	busy := 0
	for _, t := range tasks {
		stat, err := os.ReadFile("/proc/self/task/" + t.Name() + "/stat")
		if err != nil {
			continue // the thread exited
		}
		// The state follows the parenthesised command name, which may
		// itself hold spaces or parentheses.
		if i := bytes.LastIndexByte(stat, ')'); i >= 0 && i+2 < len(stat) {
			if st := stat[i+2]; st == 'R' || st == 'D' {
				busy++
			}
		}
	}
	return busy, nil
}

// freeHeap collects garbage and returns freed memory to the OS, so a timed
// window or a following set-up starts from the same heap whatever ran before.
func freeHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}
