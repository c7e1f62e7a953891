// Command ctrlbench is sdscale's control-round benchmark. It builds one
// workload's deployment through internal/cluster, runs closed-loop control
// rounds back to back for a fixed time (each round starts only after the
// previous one returned), checks the rules the fleet holds against an
// independent water-filling model, and prints every metric by name and unit
// as the last line of its output, a JSON object.
//
//	ctrlbench --workload flat-bursty-10k --seed 7 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 times the calls into
// each layer from the benchmark's own code, prints the per-layer metrics and
// writes the spans under --out/spans. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	// deployments are built per run, one after the other; each is
	// measured for its share of the window, and setup_s is the median of
	// their set-up times. Pooling rounds from several deployments evens out
	// what one deployment's memory layout and goroutine placement do to
	// its rounds.
	deployments = 3
	// minRounds keeps at least ten samples beyond the reported p90.
	minRounds = 110
	// maxWindow bounds the timed windows whatever --seconds and minRounds
	// ask, so a run ends within its time limit on a slow host.
	maxWindow = 100 * time.Second
	// checkEvery is how often, in rounds, the checker runs inside the
	// window; it also runs after warm-up and on the final round.
	checkEvery = 32
)

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ctrlbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ctrlbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "seed the workload's disturbances are drawn from")
	seconds := fs.Int("seconds", 20, "length of the timed window")
	trace := fs.Int("trace", 0, "1 records spans and prints per-layer metrics instead of end-to-end ones")
	commit := fs.String("commit", "none", "source revision, printed in the header")
	out := fs.String("out", ".bench_build", "directory for write-ahead stores and span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be positive, got %d", *seconds)
	}
	if _, err := busyThreads(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# ctrlbench workload=%s seed=%d seconds=%d trace=%d commit=%s\n", s.name, *seed, *seconds, *trace, *commit)
	fmt.Fprintf(stdout, "# host NumCPU=%d GOMAXPROCS=%d go=%s %s/%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)

	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	// Each deployment is built, checked, measured for its share of the
	// window and checked again; the windows are pooled. The last one stays
	// up for the traced run's single-call measurements.
	w := &window{}
	correct := true
	var setups []time.Duration
	var b *bench
	// Store directories are removed only once every window is over: the
	// blocks a removal frees are discarded by the file system at its next
	// journal commit, which would land in the next deployment's fsyncs.
	var dirs []string
	defer func() {
		for _, dir := range dirs {
			os.RemoveAll(dir)
		}
	}()
	for k := 0; k < deployments; k++ {
		dir := ""
		if s.durable {
			dir = filepath.Join(*out, fmt.Sprintf("wal-%d-%d", os.Getpid(), k))
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			dirs = append(dirs, dir)
		}
		nb, d, err := setup(s, *seed, dir, tr)
		if err != nil {
			return err
		}
		b = nb
		setups = append(setups, d)
		if err := b.check(); err != nil {
			fmt.Fprintf(stdout, "# deployment %d: check after warm-up failed: %v\n", k, err)
			correct = false
		}
		part := b.measure(time.Duration(*seconds)*time.Second/deployments, (minRounds+deployments-1)/deployments)
		if err := b.check(); err != nil {
			fmt.Fprintf(stdout, "# deployment %d: check on final round failed: %v\n", k, err)
			correct = false
		}
		if part.failErr != nil {
			fmt.Fprintf(stdout, "# deployment %d: first failed %v\n", k, part.failErr)
		}
		if part.checkErr != nil {
			fmt.Fprintf(stdout, "# deployment %d: check in window failed: %v\n", k, part.checkErr)
			correct = false
		}
		fmt.Fprintf(stdout, "# deployment %d: set-up %.3fs, %d rounds, %d failed, p50 %.3fms, %d checks\n",
			k, d.Seconds(), part.attempted, part.failed, ms(quantile(part.lats, 0.5)), part.checks+2)
		w.add(part)
		if k < deployments-1 {
			b.close()
			freeHeap()
		}
	}
	defer b.close()

	res := result{Correct: correct, Attempted: w.attempted, Failed: w.failed}
	if tr == nil {
		res.Metrics = b.endToEnd(w, setups)
	} else {
		res.Metrics, err = b.perLayer(w, *out)
		if err != nil {
			return err
		}
		path := filepath.Join(*out, "spans", fmt.Sprintf("%s-seed%d.jsonl", s.name, *seed))
		if err := tr.write(path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# spans=%d written to %s\n", len(tr.spans), path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// window is the outcome of timed rounds: one deployment's, or several
// pooled.
type window struct {
	attempted, failed int
	lats              []time.Duration // round latency as RunControlCycle returned it
	collect, compute  []time.Duration
	enforce           []time.Duration
	dirty             int64 // sum over rounds of the claimed dirty set
	checks            int
	checkErr          error
	failErr           error         // why the first failed round failed
	checkCPU          time.Duration // checker CPU, left out of the per-round CPU
	spans             [][2]int      // the tracer's span ranges of the windows
	d                 counters      // what the layers counted in the window
}

func (w *window) add(o *window) {
	w.attempted += o.attempted
	w.failed += o.failed
	w.lats = append(w.lats, o.lats...)
	w.collect = append(w.collect, o.collect...)
	w.compute = append(w.compute, o.compute...)
	w.enforce = append(w.enforce, o.enforce...)
	w.dirty += o.dirty
	w.checks += o.checks
	w.checkCPU += o.checkCPU
	w.spans = append(w.spans, o.spans...)
	w.d.add(o.d)
}

// measure runs closed-loop rounds from a collected heap until d is over
// and at least min rounds ran.
func (b *bench) measure(d time.Duration, min int) *window {
	w := &window{}
	runtime.GC()
	c0 := b.snapshot()
	first := b.tr.mark()
	start := time.Now()
	for {
		el := time.Since(start)
		if (el >= d && w.attempted >= min) || el >= maxWindow/deployments {
			break
		}
		r := b.round(true)
		w.attempted++
		if r.err != nil {
			w.failed++
			if w.failErr == nil {
				w.failErr = fmt.Errorf("round %d: %v", w.attempted, r.err)
			}
		} else {
			w.lats = append(w.lats, r.b.Total)
			w.collect = append(w.collect, r.b.Collect)
			w.compute = append(w.compute, r.b.Compute)
			w.enforce = append(w.enforce, r.b.Enforce)
			w.dirty += int64(r.pushed)
		}
		if w.attempted%checkEvery == 0 {
			cpu := processCPU()
			if err := b.check(); err != nil && w.checkErr == nil {
				w.checkErr = fmt.Errorf("round %d: %w", w.attempted, err)
			}
			w.checks++
			w.checkCPU += processCPU() - cpu
		}
	}
	w.spans = [][2]int{{first, b.tr.mark()}}
	w.d = b.snapshot().since(c0)
	return w
}

// endToEnd is what a user of the control plane sees.
func (b *bench) endToEnd(w *window, setups []time.Duration) map[string]metric {
	n := float64(w.attempted)
	lats := append([]time.Duration(nil), w.lats...)
	m := map[string]metric{
		"round_p50_ms":     {ms(quantile(lats, 0.5)), "ms"},
		"round_p90_ms":     {ms(quantile(lats, 0.9)), "ms"},
		"cpu_ms_per_round": {ms(w.d.cpu-w.checkCPU) / n, "ms"},
		"net_kb_per_round": {float64(w.d.globalTx+w.d.aggTx+w.d.stageTx) / 1024 / n, "KiB"},
		"rss_peak_mb":      {peakRSS() / (1 << 20), "MiB"},
		"setup_s":          {quantile(setups, 0.5).Seconds(), "s"},
	}
	if mu := mean(w.lats); mu > 0 {
		m["stages_per_s"] = metric{float64(b.s.stages) / mu.Seconds(), "1/s"}
	}
	return m
}
