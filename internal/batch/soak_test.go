package batch

import (
	"bytes"
	"os"
	"testing"
	"time"
)

// Soak parameters: the bundled examples/traces/soak.swf is exactly
// WriteSyntheticSWF's output for these arguments — several users, a
// skewed width/length mix, and enough jobs (>= 2,000) to stress the
// event loop through thousands of suspensions per policy.
const (
	soakPath  = "../../examples/traces/soak.swf"
	soakSeed  = 2004 // the paper's conference year
	soakJobs  = 2400
	soakUsers = 6
	soakNodes = 32
	soakGap   = 23 // mean arrival gap (s): ~85% offered load on 32 nodes
)

// TestSoakTraceMatchesGenerator pins the checked-in soak trace to its
// generator byte for byte, so the artifact cannot silently drift from
// the code that documents it. Set REGEN_SOAK=1 to rewrite the file
// after changing the generator or the parameters above.
func TestSoakTraceMatchesGenerator(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSyntheticSWF(&buf, soakSeed, soakJobs, soakUsers, soakNodes, soakGap); err != nil {
		t.Fatal(err)
	}
	if os.Getenv("REGEN_SOAK") != "" {
		if err := os.WriteFile(soakPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	disk, err := os.ReadFile(soakPath)
	if err != nil {
		t.Fatalf("%v (run with REGEN_SOAK=1 to generate)", err)
	}
	if !bytes.Equal(disk, buf.Bytes()) {
		t.Fatalf("%s does not match WriteSyntheticSWF(seed=%d, jobs=%d, users=%d, n=%d, gap=%d); regenerate with REGEN_SOAK=1",
			soakPath, soakSeed, soakJobs, soakUsers, soakNodes, soakGap)
	}
}

// TestSoakTraceReplay replays the bundled >= 2,000-job trace under
// every policy with time-slicing on, plus the FIFO run-to-completion
// baseline, and asserts the schedule-level invariants: every job
// finishes, no node is double-booked across thousands of suspension/
// resume cycles, utilization stays physical, and time-slicing is never
// worse than FIFO on makespan for this trace.
func TestSoakTraceReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("soak replay skipped in -short mode")
	}
	recs, err := LoadTrace(soakPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2000 {
		t.Fatalf("soak trace has %d records, want >= 2000", len(recs))
	}
	users := map[string]bool{}
	for _, r := range recs {
		users[r.User] = true
	}
	if len(users) != soakUsers {
		t.Fatalf("soak trace has %d users, want %d", len(users), soakUsers)
	}
	run := func(pol Policy, quantum time.Duration) Report {
		jobs, actual := TraceJobs(recs, soakNodes)
		s := New(Config{
			Cluster:       newTestCluster(soakNodes),
			Policy:        pol,
			Actual:        actual,
			TrunkSlowdown: 1.1,
			Quantum:       quantum,
		})
		submitAll(t, s, jobs)
		rep := s.Run()
		if len(rep.Jobs) != len(recs) || rep.Failed != 0 {
			t.Fatalf("%v quantum=%v: finished %d of %d jobs, %d failed",
				pol, quantum, len(rep.Jobs), len(recs), rep.Failed)
		}
		checkNoOverlap(t, rep.Jobs, soakNodes)
		if rep.Utilization <= 0 || rep.Utilization > 1 {
			t.Fatalf("%v quantum=%v: utilization %.3f out of range", pol, quantum, rep.Utilization)
		}
		if rep.Makespan <= 0 {
			t.Fatalf("%v quantum=%v: zero makespan", pol, quantum)
		}
		return rep
	}

	fifo := run(FIFO, 0)
	const quantum = 300 * time.Second
	for _, pol := range Policies() {
		rep := run(pol, quantum)
		if rep.SliceEvents == 0 {
			t.Errorf("%v: soak replay never sliced under a %v quantum", pol, quantum)
		}
		// Time-slicing pays checkpoint/restore overhead but never loses
		// work: every sliced backfilling discipline still beats FIFO
		// run-to-completion on makespan for this trace. Sliced FIFO has
		// no backfill to win the overhead back, so it is only held to a
		// 5% bound over its run-to-completion self.
		limit := fifo.Makespan
		if pol == FIFO {
			limit = fifo.Makespan * 21 / 20
		}
		if rep.Makespan > limit {
			t.Errorf("%v with quantum %v: makespan %v worse than the FIFO run-to-completion bound %v",
				pol, quantum, rep.Makespan, limit)
		}
	}
}

// TestSoakStormReplay replays the bundled soak trace under a seeded
// failure storm — hundreds of node crashes with repair times across the
// multi-hour schedule, proactive checkpointing on — for every policy
// with time-slicing, and asserts the fault invariants at soak scale:
// every job still reaches a terminal state, busy time balances exactly
// against work + overhead + lost work, no gang ever runs inside a down
// window, and the storm demonstrably connected (gangs killed, banks
// settled). TrunkSlowdown and Actual stay off so the balance is exact
// rather than stretch-approximated.
func TestSoakStormReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("soak storm replay skipped in -short mode")
	}
	recs, err := LoadTrace(soakPath)
	if err != nil {
		t.Fatal(err)
	}
	plan := GenFaultPlan(soakSeed, soakNodes, 24*time.Hour, 4*time.Hour)
	wins := planWindows(plan, soakNodes)
	lg := testLegs(time.Second, 500*time.Millisecond, 0, 0)
	kills, banks := 0, 0
	for _, pol := range Policies() {
		jobs, _ := TraceJobs(recs, soakNodes)
		s := New(Config{
			Cluster:   newTestCluster(soakNodes),
			Policy:    pol,
			Quantum:   300 * time.Second,
			fixedLegs: lg,
			Faults:    plan,
			// The interval must undercut the 300s quantum: a proactive
			// bank only arms when it lands before the slice boundary.
			CheckpointInterval: 4 * time.Minute,
		})
		submitAll(t, s, jobs)
		rep := s.Run()
		k, b := checkFaultBalance(t, rep, len(recs), nil, wins)
		kills += k
		banks += b
	}
	if kills == 0 || banks == 0 {
		t.Fatalf("vacuity: soak storm connected too little (%d kills, %d banks)", kills, banks)
	}
}
