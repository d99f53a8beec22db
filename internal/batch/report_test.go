package batch

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestAvgWaitDoesNotOverflow pins the report's mean waits on a schedule
// whose waits sum past int64 nanoseconds: FIFO on one node runs 100
// jobs of 100 days back to back, job i waits i runs, and the waits add
// up to 1,356 years.
func TestAvgWaitDoesNotOverflow(t *testing.T) {
	const n, run = 100, 100 * 24 * time.Hour
	s := New(Config{Cluster: newTestCluster(1), Policy: FIFO})
	jobs := make([]*Job, n)
	for i := range jobs {
		jobs[i] = &Job{Name: "long", Kind: KindCG, Nodes: 1, Est: run}
	}
	submitAll(t, s, jobs)
	rep := s.Run()
	want := (n - 1) * run / 2
	if rep.AvgWait != want || rep.ShortWait != want || rep.AvgWaitUnder(run) != want {
		t.Fatalf("AvgWait %v, ShortWait %v, AvgWaitUnder %v; want %v",
			rep.AvgWait, rep.ShortWait, rep.AvgWaitUnder(run), want)
	}
}

// TestWideSumMatchesInt64Mean checks that the wide mean equals the
// plain int64 sum over n wherever that sum does not wrap, negative
// values and truncation toward zero included.
func TestWideSumMatchesInt64Mean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 1000; trial++ {
		n := 1 + rng.Intn(50)
		bound := int64(math.MaxInt64) / int64(n)
		var w wideSum
		var sum time.Duration
		for i := 0; i < n; i++ {
			d := time.Duration(rng.Int63n(bound))
			if trial%3 == 0 && rng.Intn(2) == 0 {
				d = -d
			}
			w.add(d)
			sum += d
		}
		if got, want := w.mean(n), sum/time.Duration(n); got != want {
			t.Fatalf("trial %d: wide mean %v, int64 mean %v", trial, got, want)
		}
	}
}
