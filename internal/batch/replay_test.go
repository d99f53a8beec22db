package batch

import (
	"testing"
	"time"
)

// TestReportInsulatedFromReplay pins the replay-mutation fix: Report
// holds copies of the finished jobs, so replaying the same *Job specs
// against further schedulers (the clusterctl comparison pattern, which
// resets every scheduler-owned lifecycle field at Submit) leaves an
// earlier report's schedule — and everything recomputed from it —
// untouched. Before the fix, per-job statistics like AvgWaitUnder were
// only correct if captured at report time; RestoreWait's per-job
// inputs would have needed the same workaround.
func TestReportInsulatedFromReplay(t *testing.T) {
	const nodes, count = 16, 150
	mix := SyntheticStream(9, count, nodes, 5*time.Second)
	lg := testLegs(2*time.Second, time.Second, 0, 0)
	run := func() Report {
		s := New(Config{Cluster: newTestCluster(nodes), Policy: Backfill,
			Preempt: true, Quantum: 30 * time.Second,
			fixedLegs: lg})
		submitAll(t, s, mix)
		return s.Run()
	}

	first := run()
	if first.RestoreWait <= 0 {
		t.Fatal("mix never contended the read link — the regression would be vacuous")
	}
	type snap struct{ start, end, wait, overhead time.Duration }
	saved := make(map[int]snap, len(first.Jobs))
	for _, j := range first.Jobs {
		saved[j.ID] = snap{j.Start, j.End, j.Wait(), j.CheckpointOverhead()}
	}
	cut, short := first.ShortCut, first.ShortWait

	// Two replays of the same specs, each resetting the originals'
	// lifecycle fields at Submit.
	second := run()
	third := run()

	// The schedule is deterministic, so the replays agree with the
	// first run...
	if second.Makespan != first.Makespan || third.Makespan != first.Makespan ||
		second.RestoreWait != first.RestoreWait || third.RestoreWait != first.RestoreWait {
		t.Fatalf("replays diverged: makespan %v/%v/%v, restore wait %v/%v/%v",
			first.Makespan, second.Makespan, third.Makespan,
			first.RestoreWait, second.RestoreWait, third.RestoreWait)
	}
	// ...and the first report still describes the schedule it measured:
	// its job copies kept their lifecycle fields, and its short-job
	// statistics recompute to the values published at report time.
	for _, j := range first.Jobs {
		want := saved[j.ID]
		if j.Start != want.start || j.End != want.end || j.Wait() != want.wait ||
			j.CheckpointOverhead() != want.overhead {
			t.Fatalf("job %d in the first report was rewritten by a replay: %v/%v vs %v/%v",
				j.ID, j.Start, j.End, want.start, want.end)
		}
	}
	if got := first.MedianEstimate(); got != cut {
		t.Fatalf("first report's median estimate recomputes to %v, was %v at report time", got, cut)
	}
	if got := first.AvgWaitUnder(cut); got != short {
		t.Fatalf("first report's short-job wait recomputes to %v, was %v at report time", got, short)
	}
}
