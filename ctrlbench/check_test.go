package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// small returns a workload's shape at reduced scale: 320 stages, the same
// 16 jobs, and a disturbance of 8 jobs × 5 stages per round.
func small(t *testing.T, name string) spec {
	t.Helper()
	s, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	s.stages = 320
	if s.pushesPerJob > 0 {
		s.pushesPerJob = 5
	}
	return s
}

func TestCheckerAcceptsEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			s := small(t, w.name)
			dir := ""
			if s.durable {
				dir = filepath.Join(t.TempDir(), "wal")
			}
			b, _, err := setup(s, 3, dir, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			for i := 0; i < 3; i++ {
				if r := b.round(true); r.err != nil {
					t.Fatalf("round %d failed: %v", i, r.err)
				}
				if err := b.check(); err != nil {
					t.Fatalf("round %d: %v", i, err)
				}
			}
		})
	}
}

func TestCheckerRejectsPerturbedRule(t *testing.T) {
	s := small(t, "flat-bursty-10k")
	b, _, err := setup(s, 5, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	if r := b.round(true); r.err != nil {
		t.Fatalf("round failed: %v", r.err)
	}
	readFleet(b.c, &b.view)
	verifyView := func() error { return verify(b.demand, b.jobOf, s.jobs, s.capacity(), &b.view) }
	if err := verifyView(); err != nil {
		t.Fatalf("unperturbed fleet rejected: %v", err)
	}

	// A perturbation inside the tolerance passes; 1e-6 relative does not.
	const stage, class = 17, 1
	orig := b.view.rules[stage].Limit[class]
	b.view.rules[stage].Limit[class] = orig * (1 + 1e-12)
	if err := verifyView(); err != nil {
		t.Fatalf("perturbation of 1e-12 rejected: %v", err)
	}
	b.view.rules[stage].Limit[class] = orig * (1 + 1e-6)
	if err := verifyView(); err == nil || !strings.Contains(err.Error(), "stage index 17 class 1") {
		t.Fatalf("perturbation of 1e-6 accepted (err %v)", err)
	}
	b.view.rules[stage].Limit[class] = orig

	b.view.epochs[3]++
	if err := verifyView(); err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("stage fenced at another epoch accepted (err %v)", err)
	}
}

func TestDisturberIsSeeded(t *testing.T) {
	s := small(t, "flat-bursty-10k")
	jobOf := make([]uint64, s.stages)
	for i := range jobOf {
		jobOf[i] = uint64(i%s.jobs + 1)
	}
	a, b, c := newDisturber(s, 9, jobOf), newDisturber(s, 9, jobOf), newDisturber(s, 10, jobOf)
	same := true
	for round := 0; round < 4; round++ {
		pa, pb, pc := a.next(), b.next(), c.next()
		if len(pa) != s.pushesPerRound() {
			t.Fatalf("round %d: %d pushes, want %d", round, len(pa), s.pushesPerRound())
		}
		seen := map[int]bool{}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("round %d: same seed drew %v and %v", round, pa[i], pb[i])
			}
			if pa[i] != pc[i] {
				same = false
			}
			if seen[pa[i].idx] || pa[i].f < 0.6 || pa[i].f >= 1.4 {
				t.Fatalf("round %d: bad push %v", round, pa[i])
			}
			seen[pa[i].idx] = true
		}
	}
	if same {
		t.Fatal("different seeds drew the same disturbances")
	}
}
