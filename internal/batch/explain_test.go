package batch

import (
	"strings"
	"testing"
	"time"
)

// TestExplainHeadOfLineUnderFIFO: everything behind a blocked FIFO head
// is blocked by the head, and the stream says so.
func TestExplainHeadOfLineUnderFIFO(t *testing.T) {
	rec := &MemRecorder{}
	s := New(Config{Cluster: newTestCluster(4), Policy: FIFO, Recorder: rec})
	hog := &Job{Name: "hog", Kind: KindLBM, Nodes: 4, Est: time.Hour}
	head := &Job{Name: "head", Kind: KindCG, Nodes: 4, Est: time.Minute}
	tail := &Job{Name: "tail", Kind: KindPDE, Nodes: 1, Est: time.Minute}
	submitAll(t, s, []*Job{hog, head, tail})
	rep := s.Run()
	if e := rep.Explain(head.ID); e.Dominant() != ReasonNoPlacement {
		t.Fatalf("blocked head dominant reason = %v, want no-placement\n%s", e.Dominant(), e)
	}
	if e := rep.Explain(tail.ID); e.Dominant() != ReasonHeadOfLine {
		t.Fatalf("FIFO tail dominant reason = %v, want head-of-line\n%s", e.Dominant(), e)
	}
	if e := rep.Explain(hog.ID); e.BlockedPasses != 0 || e.Dominant() != ReasonNone {
		t.Fatalf("hog started immediately but explains as %s", rep.Explain(hog.ID))
	}
}

// TestExplainShadowUnderEASY: a backfill candidate too long for the
// blocked head's reservation is recorded as a shadow violation.
func TestExplainShadowUnderEASY(t *testing.T) {
	rec := &MemRecorder{}
	s := New(Config{Cluster: newTestCluster(4), Policy: Backfill, Recorder: rec})
	hog := &Job{Name: "hog", Kind: KindLBM, Nodes: 3, Est: time.Hour}
	head := &Job{Name: "head", Kind: KindCG, Nodes: 4, Est: time.Minute, Submit: time.Second}
	// Fits the free node but is too long to finish before the hog frees
	// the machine for the head.
	long := &Job{Name: "long", Kind: KindPDE, Nodes: 1, Est: 2 * time.Hour, Submit: time.Second}
	// Legal backfill whose completion triggers an extra pass mid-hog.
	filler := &Job{Name: "filler", Kind: KindPDE, Nodes: 1, Est: time.Minute, Submit: time.Second}
	submitAll(t, s, []*Job{hog, head, long, filler})
	rep := s.Run()
	e := rep.Explain(long.ID)
	if e.Dominant() != ReasonShadow {
		t.Fatalf("oversized backfill candidate dominant reason = %v, want shadow\n%s", e.Dominant(), e)
	}
	// The shadow bound rides on the event: the hog's completion.
	for _, ev := range rep.Timeline(long.ID) {
		if ev.Kind == EvBlocked && ev.Reason == ReasonShadow && ev.From <= ev.Time {
			t.Fatalf("shadow EvBlocked carries bound %v at time %v (want a future instant)", ev.From, ev.Time)
		}
	}
}

// TestExplainWaveDraining: the beneficiary of a preemption wave waits
// on its victims' checkpoints, and the passes in between say so.
func TestExplainWaveDraining(t *testing.T) {
	lg := testLegs(30*time.Second, 10*time.Second, 0, 0)
	rec := &MemRecorder{}
	s := New(Config{
		Cluster: newTestCluster(4), Policy: Backfill, Preempt: true,
		fixedLegs: lg, Recorder: rec,
	})
	hog := &Job{Name: "hog", Kind: KindLBM, Nodes: 4, Priority: 0, Est: time.Hour}
	urgent := &Job{Name: "urgent", Kind: KindCG, Nodes: 4, Priority: 9,
		Est: time.Minute, Submit: 10 * time.Second}
	submitAll(t, s, []*Job{hog, urgent})
	rep := s.Run()
	e := rep.Explain(urgent.ID)
	if e.Dominant() != ReasonWaveDraining {
		t.Fatalf("preemptor dominant reason = %v, want wave-draining\n%s", e.Dominant(), e)
	}
}

// TestExplainFutileCheckpoint: when every lower-priority gang would
// finish before its contended drain, preemption refuses and the
// explanation names the futile-checkpoint guard.
func TestExplainFutileCheckpoint(t *testing.T) {
	// Drain (10 min) dwarfs the hog's remaining 5 minutes: suspending
	// it frees nothing sooner.
	lg := testLegs(10*time.Minute, time.Second, 0, 0)
	rec := &MemRecorder{}
	s := New(Config{
		Cluster: newTestCluster(4), Policy: FIFO, Preempt: true,
		fixedLegs: lg, Recorder: rec,
	})
	hog := &Job{Name: "hog", Kind: KindLBM, Nodes: 4, Priority: 0, Est: 5 * time.Minute}
	urgent := &Job{Name: "urgent", Kind: KindCG, Nodes: 4, Priority: 9,
		Est: time.Minute, Submit: 10 * time.Second}
	submitAll(t, s, []*Job{hog, urgent})
	rep := s.Run()
	e := rep.Explain(urgent.ID)
	if e.Dominant() != ReasonFutileCheckpoint {
		t.Fatalf("dominant reason = %v, want futile-checkpoint\n%s", e.Dominant(), e)
	}
}

// TestExplainReservationUnderConservative: a queued job held to a
// future slot by the conservative profile records the reserved start.
func TestExplainReservationUnderConservative(t *testing.T) {
	rec := &MemRecorder{}
	s := New(Config{Cluster: newTestCluster(4), Policy: Conservative, Recorder: rec})
	hog := &Job{Name: "hog", Kind: KindLBM, Nodes: 4, Est: time.Hour}
	waiter := &Job{Name: "waiter", Kind: KindCG, Nodes: 4, Est: time.Minute, Submit: time.Second}
	// A third job arrives later so scheduling passes fire while the
	// waiter holds its reservation.
	late := &Job{Name: "late", Kind: KindPDE, Nodes: 1, Est: time.Minute, Submit: 20 * time.Minute}
	submitAll(t, s, []*Job{hog, waiter, late})
	rep := s.Run()
	e := rep.Explain(waiter.ID)
	if e.BlockedPasses == 0 {
		t.Fatal("waiter was never recorded blocked")
	}
	seen := false
	for _, c := range e.Counts {
		if c.Reason == ReasonReservation {
			seen = true
		}
	}
	if !seen {
		t.Fatalf("conservative waiter never recorded reserved:\n%s", e)
	}
	for _, ev := range rep.Timeline(waiter.ID) {
		if ev.Kind == EvBlocked && ev.Reason == ReasonReservation && ev.From <= ev.Time {
			t.Fatalf("reservation EvBlocked at %v carries bound %v (want future)", ev.Time, ev.From)
		}
	}
}

// TestExplanationAggregation covers ExplainEvents and the rendering on
// a hand-built stream: counts split by reason, most frequent first,
// deterministic tie-break, and the never-blocked phrasing.
func TestExplanationAggregation(t *testing.T) {
	events := []Event{
		{Kind: EvBlocked, Job: 7, Pass: 1, Reason: ReasonShadow},
		{Kind: EvBlocked, Job: 7, Pass: 2, Reason: ReasonShadow},
		{Kind: EvBlocked, Job: 7, Pass: 3, Reason: ReasonLinkBusy},
		{Kind: EvBlocked, Job: 9, Pass: 3, Reason: ReasonHeadOfLine},
		{Kind: EvDispatch, Job: 7, Pass: 0},
	}
	e := ExplainEvents(events, 7)
	if e.BlockedPasses != 3 || len(e.Counts) != 2 {
		t.Fatalf("aggregation off: %+v", e)
	}
	if e.Counts[0].Reason != ReasonShadow || e.Counts[0].Passes != 2 {
		t.Fatalf("most frequent first violated: %+v", e.Counts)
	}
	if e.Dominant() != ReasonShadow {
		t.Fatalf("dominant = %v, want shadow", e.Dominant())
	}
	got := e.String()
	if !strings.Contains(got, "blocked on 3 scheduler passes") ||
		!strings.Contains(got, "shadow=2") || !strings.Contains(got, "link-busy=1") {
		t.Fatalf("rendering: %q", got)
	}
	if never := ExplainEvents(events, 42); never.BlockedPasses != 0 ||
		!strings.Contains(never.String(), "never blocked") {
		t.Fatalf("never-blocked rendering: %q", never.String())
	}
}

// TestExplainEveryPolicyClassifies runs a contended stream under each
// policy and requires every blocked pass to carry a real reason — the
// classifier must never fall through to an unlabeled blocker.
func TestExplainEveryPolicyClassifies(t *testing.T) {
	for _, pol := range Policies() {
		rec := &MemRecorder{}
		s := New(Config{
			Cluster: newTestCluster(32), Policy: pol, TrunkSlowdown: 1.1,
			Preempt: true, Quantum: 300 * time.Second, SuspendToHost: true,
			Recorder: rec,
		})
		submitAll(t, s, SyntheticStream(17, 100, 32, 5*time.Second))
		s.Run()
		blocked := 0
		for _, ev := range rec.Events() {
			if ev.Kind != EvBlocked {
				continue
			}
			blocked++
			if ev.Reason <= ReasonNone || ev.Reason >= numBlockReasons {
				t.Fatalf("%v: EvBlocked with reason %d out of range", pol, ev.Reason)
			}
			if ev.Pass <= 0 {
				t.Fatalf("%v: EvBlocked without a pass number", pol)
			}
		}
		if blocked == 0 {
			t.Fatalf("%v: contended stream recorded no blocked passes", pol)
		}
	}
}
