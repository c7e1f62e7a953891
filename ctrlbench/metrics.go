package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/dsrhaslab/sdscale/internal/telemetry"
)

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// processCPU returns the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns the process's peak resident set size in bytes.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

// Runtime metrics read at the window's edges.
var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/sched/latencies:seconds",
	"/sched/goroutines:goroutines",
}

// counters is every cumulative counter the benchmark reads from the
// program's layers and the Go runtime: taken at one instant by snapshot, or
// summed over the timed windows of several deployments.
type counters struct {
	cpu time.Duration
	// Bytes written into simnet by the global, aggregator and stage hosts.
	globalTx, aggTx, stageTx uint64
	// Busy time of the global controller and of all aggregators (monitor).
	globalBusy, aggBusy time.Duration
	// Stage-side request and push counts.
	collects, enforces, pushes uint64
	// Controller pipeline counters, summed over the global and aggregators.
	suppressedCollects, suppressedEnforces, sharedEncodes uint64
	arenaTakes, arenaReuses, arenaGrows                   uint64
	// Write-ahead store counters; fsyncTime is the summed fsync latency.
	storeRecords, storeFsyncs, storeSnapshots uint64
	storeFsyncTime                            time.Duration
	// Go runtime: GC CPU seconds, heap bytes and objects allocated, the
	// scheduler-latency histogram (bucket counts over schedBuckets) and the
	// goroutine count, which is a level, not a sum.
	gcCPU, allocBytes, allocObjs float64
	schedCounts                  []uint64
	schedBuckets                 []float64
	goroutines                   float64
}

func (b *bench) snapshot() counters {
	c := counters{cpu: processCPU()}
	for _, h := range b.c.Net.Hosts() {
		tx := h.Meter().Tx()
		switch name := h.Name(); {
		case name == "global":
			c.globalTx += tx
		case strings.HasPrefix(name, "agg-"):
			c.aggTx += tx
		case strings.HasPrefix(name, "stage-"):
			c.stageTx += tx
		}
	}
	c.globalBusy = b.c.GlobalRole.CPU.Busy()
	for _, r := range b.c.AggregatorRoles {
		c.aggBusy += r.CPU.Busy()
	}
	for _, st := range b.c.Stages {
		col, enf := st.Counters()
		c.collects += col
		c.enforces += enf
		c.pushes += st.Pushes()
	}
	pipes := []*telemetry.PipelineStats{b.c.Global.Pipeline()}
	for _, a := range b.c.Aggregators {
		pipes = append(pipes, a.Pipeline())
	}
	for _, p := range pipes {
		c.suppressedCollects += p.SuppressedCollects()
		c.suppressedEnforces += p.SuppressedEnforces()
		c.sharedEncodes += p.SharedEncodes()
		a := p.Arena()
		c.arenaTakes += a.Takes
		c.arenaReuses += a.Reuses
		c.arenaGrows += a.Grows
	}
	if st := b.c.Global.Stats().Store; st != nil {
		c.storeRecords, c.storeFsyncs, c.storeSnapshots = st.AppendedRecords, st.Fsyncs, st.Snapshots
		c.storeFsyncTime = time.Duration(st.Fsyncs) * st.FsyncMean
	}
	rt := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		rt[i].Name = n
	}
	metrics.Read(rt)
	c.gcCPU = rt[0].Value.Float64()
	c.allocBytes = float64(rt[1].Value.Uint64())
	c.allocObjs = float64(rt[2].Value.Uint64())
	h := rt[3].Value.Float64Histogram()
	c.schedCounts = append([]uint64(nil), h.Counts...)
	c.schedBuckets = h.Buckets
	c.goroutines = float64(rt[4].Value.Uint64())
	return c
}

// since returns what accumulated from c0 to c.
func (c counters) since(c0 counters) counters {
	d := counters{
		cpu:      c.cpu - c0.cpu,
		globalTx: c.globalTx - c0.globalTx, aggTx: c.aggTx - c0.aggTx, stageTx: c.stageTx - c0.stageTx,
		globalBusy: c.globalBusy - c0.globalBusy, aggBusy: c.aggBusy - c0.aggBusy,
		collects: c.collects - c0.collects, enforces: c.enforces - c0.enforces, pushes: c.pushes - c0.pushes,
		suppressedCollects: c.suppressedCollects - c0.suppressedCollects,
		suppressedEnforces: c.suppressedEnforces - c0.suppressedEnforces,
		sharedEncodes:      c.sharedEncodes - c0.sharedEncodes,
		arenaTakes:         c.arenaTakes - c0.arenaTakes, arenaReuses: c.arenaReuses - c0.arenaReuses,
		arenaGrows:   c.arenaGrows - c0.arenaGrows,
		storeRecords: c.storeRecords - c0.storeRecords, storeFsyncs: c.storeFsyncs - c0.storeFsyncs,
		storeSnapshots: c.storeSnapshots - c0.storeSnapshots, storeFsyncTime: c.storeFsyncTime - c0.storeFsyncTime,
		gcCPU: c.gcCPU - c0.gcCPU, allocBytes: c.allocBytes - c0.allocBytes, allocObjs: c.allocObjs - c0.allocObjs,
		schedCounts:  make([]uint64, len(c.schedCounts)),
		schedBuckets: c.schedBuckets,
		goroutines:   c.goroutines,
	}
	for i := range d.schedCounts {
		d.schedCounts[i] = c.schedCounts[i] - c0.schedCounts[i]
	}
	return d
}

// add sums the window d into c.
func (c *counters) add(d counters) {
	c.cpu += d.cpu
	c.globalTx += d.globalTx
	c.aggTx += d.aggTx
	c.stageTx += d.stageTx
	c.globalBusy += d.globalBusy
	c.aggBusy += d.aggBusy
	c.collects += d.collects
	c.enforces += d.enforces
	c.pushes += d.pushes
	c.suppressedCollects += d.suppressedCollects
	c.suppressedEnforces += d.suppressedEnforces
	c.sharedEncodes += d.sharedEncodes
	c.arenaTakes += d.arenaTakes
	c.arenaReuses += d.arenaReuses
	c.arenaGrows += d.arenaGrows
	c.storeRecords += d.storeRecords
	c.storeFsyncs += d.storeFsyncs
	c.storeSnapshots += d.storeSnapshots
	c.storeFsyncTime += d.storeFsyncTime
	c.gcCPU += d.gcCPU
	c.allocBytes += d.allocBytes
	c.allocObjs += d.allocObjs
	if c.schedCounts == nil {
		c.schedCounts = make([]uint64, len(d.schedCounts))
		c.schedBuckets = d.schedBuckets
	}
	for i := range d.schedCounts {
		c.schedCounts[i] += d.schedCounts[i]
	}
	c.goroutines = max(c.goroutines, d.goroutines)
}

// schedLatency returns the p-quantile of the scheduler latencies in c, in
// seconds, as the upper edge of its histogram bucket (the lower edge for
// the open last bucket), and the sample count.
func (c counters) schedLatency(p float64) (float64, uint64) {
	var total uint64
	for _, n := range c.schedCounts {
		total += n
	}
	if total == 0 {
		return 0, 0
	}
	rank := uint64(math.Ceil(p * float64(total)))
	var seen uint64
	for i, n := range c.schedCounts {
		seen += n
		if seen >= rank {
			if hi := c.schedBuckets[i+1]; !math.IsInf(hi, 1) {
				return hi, total
			}
			return c.schedBuckets[i], total
		}
	}
	return 0, total
}

// quantile returns the nearest-rank p-quantile of xs (sorted in place).
func quantile(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	k := int(math.Ceil(p*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	return xs[k]
}

func mean(xs []time.Duration) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range xs {
		sum += x
	}
	return sum / time.Duration(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
