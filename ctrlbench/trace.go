package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/dsrhaslab/sdscale/internal/controlalg"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark's own code. Times are nanoseconds since the run started.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out at exit. A nil
// tracer records nothing, which is the untraced mode. Every span of one
// round hangs under that round's "round" span.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	round int32 // the open round span: parent of calls the program makes into benchmark code
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span under parent, or under the open round's
// cluster.RunControlCycle span when parent is 0 (calls the program makes
// into benchmark code during a round), or at the top when neither is set.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent == 0 {
		parent = t.round
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// setRound names the round span that calls back from inside the program
// (the control algorithm) hang under.
func (t *tracer) setRound(id int32) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.round = id
	t.mu.Unlock()
}

// mark returns the number of spans recorded so far.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns the duration of every closed span with the given name
// among the spans recorded in the given [from, to) mark ranges.
func (t *tracer) durations(name string, ranges [][2]int) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, r := range ranges {
		for _, s := range t.spans[r[0]:r[1]] {
			if s.Name == name && s.End > 0 {
				out = append(out, time.Duration(s.End-s.Start))
			}
		}
	}
	return out
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// timedAlgorithm wraps the control algorithm handed to the deployment so the
// traced run can time every Allocate call without touching the program.
type timedAlgorithm struct {
	controlalg.Algorithm
	tr *tracer
}

func (a timedAlgorithm) Allocate(jobs []controlalg.JobInput, capacity wire.Rates) []controlalg.JobAllocation {
	sp := a.tr.begin("controlalg.Allocate", 0)
	defer a.tr.end(sp)
	return a.Algorithm.Allocate(jobs, capacity)
}
