package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/dsrhaslab/sdscale/internal/rpc"
	"github.com/dsrhaslab/sdscale/internal/store"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// perLayer is the traced run's output: counters and call timings for each
// layer, named <module>.<metric>, over the same window the end-to-end
// metrics cover, plus timings of single calls into rpc, wire and store made
// after the window. A metric of a layer a workload leaves idle reads 0.
func (b *bench) perLayer(w *window, out string) (map[string]metric, error) {
	n := float64(w.attempted)
	d := w.d
	per := func(v uint64) float64 { return float64(v) / n }
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	set("controller.collect_ms", ms(quantile(w.collect, 0.5)), "ms")
	set("controller.compute_ms", ms(quantile(w.compute, 0.5)), "ms")
	set("controller.enforce_ms", ms(quantile(w.enforce, 0.5)), "ms")
	ok := float64(len(w.lats))
	set("controller.dirty_children", float64(w.dirty)/max(ok, 1), "count")
	set("controller.suppressed_collects_per_round", per(d.suppressedCollects), "count")
	set("controller.suppressed_enforces_per_round", per(d.suppressedEnforces), "count")
	set("controller.shared_encodes_per_round", per(d.sharedEncodes), "count")

	set("cyclemem.arena_grows_per_round", per(d.arenaGrows), "count")
	set("cyclemem.arena_reuses_per_take", float64(d.arenaReuses)/max(float64(d.arenaTakes), 1), "ratio")

	set("monitor.global_busy_ms_per_round", ms(d.globalBusy)/n, "ms")
	aggs := float64(max(len(b.c.Aggregators), 1))
	set("monitor.aggregator_busy_ms_per_round", ms(d.aggBusy)/n/aggs, "ms")

	alloc := b.tr.durations("controlalg.Allocate", w.spans)
	set("controlalg.allocate_us", us(quantile(alloc, 0.5)), "us")
	set("controlalg.calls_per_round", float64(len(alloc))/n, "count")

	set("simnet.global_kb_per_round", per(d.globalTx)/1024, "KiB")
	set("simnet.aggregator_kb_per_round", per(d.aggTx)/1024, "KiB")
	set("simnet.stage_kb_per_round", per(d.stageTx)/1024, "KiB")

	set("stage.collects_per_round", per(d.collects), "count")
	set("stage.enforces_per_round", per(d.enforces), "count")
	set("stage.pushes_per_round", per(d.pushes), "count")
	// Every stage-tier request is one rpc call from a controller.
	set("rpc.calls_per_round", per(d.collects+d.enforces), "count")

	set("runtime.gc_cpu_ms_per_round", d.gcCPU*1e3/n, "ms")
	set("runtime.alloc_kb_per_round", d.allocBytes/1024/n, "KiB")
	set("runtime.allocs_per_round", d.allocObjs/n, "count")
	p50, samples := d.schedLatency(0.5)
	p99, _ := d.schedLatency(0.99)
	set("runtime.sched_latency_p50_us", p50*1e6, "us")
	set("runtime.sched_latency_p99_us", p99*1e6, "us")
	set("runtime.sched_samples_per_round", float64(samples)/n, "count")
	set("runtime.goroutines", d.goroutines, "count")

	set("trace.round_p50_ms", ms(quantile(append([]time.Duration(nil), w.lats...), 0.5)), "ms")

	callUS, err := b.rpcCallLatency(2000)
	if err != nil {
		return nil, err
	}
	set("rpc.call_us", callUS, "us")

	for _, wm := range b.wireMessages() {
		enc, dec, size, err := wireCost(wm.msg)
		if err != nil {
			return nil, fmt.Errorf("wire %s: %w", wm.name, err)
		}
		set("wire."+wm.name+".encode_ns", enc, "ns")
		set("wire."+wm.name+".decode_ns", dec, "ns")
		set("wire."+wm.name+".bytes", float64(size), "B")
	}

	var fsyncMeanUS, logKB, appendUS float64
	if d.storeFsyncs > 0 {
		fsyncMeanUS = us(d.storeFsyncTime / time.Duration(d.storeFsyncs))
	}
	if b.s.durable {
		var perRecord float64
		var err error
		appendUS, perRecord, err = b.storeAppend(filepath.Join(out, fmt.Sprintf("scratch-%d", os.Getpid())))
		if err != nil {
			return nil, err
		}
		logKB = per(d.storeRecords) * perRecord / 1024
	}
	set("store.records_per_round", per(d.storeRecords), "count")
	set("store.fsyncs_per_round", per(d.storeFsyncs), "count")
	set("store.fsync_mean_us", fsyncMeanUS, "us")
	set("store.snapshots_per_round", per(d.storeSnapshots), "count")
	set("store.log_kb_per_round", logKB, "KiB")
	set("store.append_rules_us", appendUS, "us")
	set("trace.spans", float64(len(b.tr.spans)), "count")
	return m, nil
}

// rpcCallLatency times Collect round trips to one stage over one simnet
// connection of the benchmark's own, through rpc's client, and returns the
// median in microseconds.
func (b *bench) rpcCallLatency(calls int) (float64, error) {
	ctx := context.Background()
	host := b.c.Net.Host("bench-probe")
	cl, err := rpc.Dial(ctx, host, b.c.Stages[0].Info().Addr, rpc.DialOptions{})
	if err != nil {
		return 0, fmt.Errorf("rpc probe dial: %w", err)
	}
	defer cl.Close()
	req := &wire.Collect{WindowMicros: 1_000_000, Epoch: b.c.Global.Epoch()}
	lats := make([]time.Duration, 0, calls)
	for i := 0; i < calls; i++ {
		req.Cycle = uint64(i + 1)
		sp := b.tr.begin("rpc.Client.Call", 0)
		start := time.Now()
		if _, err := cl.Call(ctx, req); err != nil {
			return 0, fmt.Errorf("rpc probe call: %w", err)
		}
		lats = append(lats, time.Since(start))
		b.tr.end(sp)
	}
	return us(quantile(lats, 0.5)), nil
}

type namedMessage struct {
	name string
	msg  wire.Message
}

// wireMessages builds the workload's own messages from the fleet's current
// state: one stage's collect reply and push, the collect reply of an
// aggregator owning the first quarter of the fleet, and the largest enforce
// the workload sends (a 2,500-rule batch to an aggregator in the
// hierarchy, one rule to a stage in the flat design).
func (b *bench) wireMessages() []namedMessage {
	readFleet(b.c, &b.view)
	d := b.demand[0]
	report := wire.StageReport{StageID: 1, JobID: b.jobOf[0], Demand: d, Usage: d}
	for c := range report.Usage {
		report.Usage[c] = min(d[c], b.view.rules[0].Limit[c])
	}
	part := b.s.stages / 4
	jobs := make([]wire.JobReport, b.s.jobs)
	for i := 0; i < part; i++ {
		j := &jobs[b.jobOf[i]-1]
		j.JobID = b.jobOf[i]
		j.Stages++
		j.Demand = j.Demand.Add(b.demand[i])
		j.Usage = j.Usage.Add(b.view.rules[i].Limit)
	}
	batch := 1
	if b.s.aggregators > 0 {
		batch = b.s.stages / b.s.aggregators
	}
	rules := append([]wire.Rule(nil), b.view.rules[:batch]...)
	epoch := b.view.leader
	return []namedMessage{
		{"collect_reply", &wire.CollectReply{Cycle: 1 << 20, Reports: []wire.StageReport{report}}},
		{"collect_agg_reply", &wire.CollectAggReply{Cycle: 1 << 20, AggregatorID: 1_000_000, Jobs: jobs}},
		{"enforce", &wire.Enforce{Cycle: 1 << 20, Rules: rules, Epoch: epoch}},
		{"report_delta", &wire.ReportDelta{Full: true, Epoch: epoch, Report: report}},
	}
}

// wireCost times the v2 encode and decode of m, returning the median
// nanoseconds per call over five batches of at least 10ms, and its size.
func wireCost(m wire.Message) (encNS, decNS float64, size int, err error) {
	buf := wire.EncodeWith(nil, m, wire.CodecV2, nil)
	size = len(buf)
	opts := &wire.DecodeOpts{Version: wire.CodecV2}
	if _, err := wire.DecodeWith(buf, opts); err != nil {
		return 0, 0, 0, err
	}
	scratch := make([]byte, 0, size)
	encNS = perCall(func() { scratch = wire.EncodeWith(scratch[:0], m, wire.CodecV2, nil) })
	decNS = perCall(func() { _, err = wire.DecodeWith(buf, opts) })
	return encNS, decNS, size, err
}

// perCall returns the median over five batches of fn's cost in ns, each
// batch doubling its call count until it lasts at least 10ms.
func perCall(fn func()) float64 {
	calls := 1
	for {
		start := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		if time.Since(start) >= 10*time.Millisecond {
			break
		}
		calls *= 2
	}
	batches := make([]time.Duration, 5)
	for k := range batches {
		start := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		batches[k] = time.Since(start) / time.Duration(calls)
	}
	return float64(quantile(batches, 0.5))
}

// storeAppend appends the last round's changed rules, one record per stage
// as the controller logs them, to a scratch store with compaction off. It
// returns the mean AppendRules time in microseconds and the log bytes per
// record.
func (b *bench) storeAppend(dir string) (appendUS, bytesPerRecord float64, err error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(store.Options{Dir: dir, SnapshotEvery: 1 << 30, MaxLogBytes: 1 << 40})
	if err != nil {
		return 0, 0, fmt.Errorf("scratch store: %w", err)
	}
	defer st.Close()
	readFleet(b.c, &b.view)
	changed := b.dist.lastJobs()
	var total time.Duration
	records := 0
	for i, r := range b.view.rules {
		if !changed[b.jobOf[i]-1] {
			continue
		}
		sp := b.tr.begin("store.AppendRules", 0)
		start := time.Now()
		err := st.AppendRules(1, r.StageID, b.view.rules[i:i+1])
		total += time.Since(start)
		b.tr.end(sp)
		if err != nil {
			return 0, 0, fmt.Errorf("scratch append: %w", err)
		}
		records++
	}
	if err := st.Sync(); err != nil {
		return 0, 0, fmt.Errorf("scratch sync: %w", err)
	}
	ss := st.Stats()
	if records == 0 || ss.LogRecords == 0 {
		return 0, 0, fmt.Errorf("scratch store holds no records")
	}
	return us(total) / float64(records), float64(ss.LogBytes) / float64(ss.LogRecords), st.Close()
}
