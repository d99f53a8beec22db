package batch

import (
	"strings"
	"testing"
	"time"
)

// TestSuspendToHostSkipsStoreRoundTrip pins the cheap tier: a victim
// whose image fits in its nodes' free memory suspends into RAM (1s bus
// drain instead of the 10s store checkpoint), resumes on its home nodes
// for 1s instead of the 5s store restore, and never touches the store
// link — against store-only preemption the checkpoint overhead drops
// from 15s to 2s on the same schedule.
func TestSuspendToHostSkipsStoreRoundTrip(t *testing.T) {
	run := func(suspend bool) (*Job, *Job, Report) {
		lg := testLegs(10*time.Second, 5*time.Second, time.Second, time.Second)
		s := New(Config{Cluster: newTestCluster(8), Policy: Backfill,
			Preempt: true, SuspendToHost: suspend,
			fixedLegs: lg})
		v := &Job{Name: "v", Nodes: 8, Priority: 0, Est: 500 * time.Second}
		u := &Job{Name: "u", Nodes: 8, Priority: 9, Est: 30 * time.Second, Submit: 10 * time.Second}
		submitAll(t, s, []*Job{v, u})
		rep := s.Run()
		checkNoOverlap(t, rep.Jobs, 8)
		return v, u, rep
	}

	v, u, rep := run(true)
	if u.Start != 11*time.Second {
		t.Fatalf("urgent started %v, want 11s (1s in-RAM drain)", u.Start)
	}
	if v.End != 532*time.Second {
		t.Fatalf("victim ended %v, want 532s (resume at 41s + 1s + 490s left)", v.End)
	}
	if got := v.CheckpointOverhead(); got != 2*time.Second {
		t.Fatalf("victim overhead %v, want 2s (bus-only drain + resume)", got)
	}
	if rep.HostSuspends != 1 || rep.Demotions != 0 {
		t.Fatalf("host suspensions %d / demotions %d, want 1 / 0", rep.HostSuspends, rep.Demotions)
	}
	if rep.DrainWait != 0 || rep.RestoreWait != 0 {
		t.Fatalf("link waits %v/%v, want zero — suspend-to-host bypasses the store link",
			rep.DrainWait, rep.RestoreWait)
	}
	if v.BusyTime() != v.Estimate()+v.CheckpointOverhead() {
		t.Fatalf("victim busy %v != est %v + overhead %v",
			v.BusyTime(), v.Estimate(), v.CheckpointOverhead())
	}
	if !strings.Contains(rep.String(), "suspend-to-host: 1 in-RAM suspensions") {
		t.Fatalf("report missing suspend-to-host line:\n%s", rep)
	}

	vStore, uStore, repStore := run(false)
	if uStore.Start != 20*time.Second || vStore.End != 545*time.Second {
		t.Fatalf("store-only run %v/%v, want 20s start and 545s end", uStore.Start, vStore.End)
	}
	if repStore.HostSuspends != 0 {
		t.Fatalf("store-only run recorded %d host suspensions", repStore.HostSuspends)
	}
	if rep.CheckpointOverhead >= repStore.CheckpointOverhead {
		t.Fatalf("suspend-to-host overhead %v not below store-only %v",
			rep.CheckpointOverhead, repStore.CheckpointOverhead)
	}
}

// TestSuspendToHostDemotionPaysSkippedDrain pins the eviction path: a
// resident image blocks a memory-constrained waiter (the nodes are
// free, their RAM is not), so the image demotes to the store — paying,
// on the link's write timeline, exactly the store transfer its
// suspension skipped (checkpoint cost minus the bus drain) — the
// waiter starts when the write settles, and the demoted job's next
// restore is a full store restore.
func TestSuspendToHostDemotionPaysSkippedDrain(t *testing.T) {
	lg := testLegs(10*time.Second, 5*time.Second, time.Second, time.Second)
	c := newTestCluster(2)
	for i := 0; i < 2; i++ {
		c.SetSpec(i, NodeSpec{GPUs: 1, MemBytes: 100 << 20, Group: c.Spec(i).Group})
	}
	s := New(Config{Cluster: c, Policy: Backfill,
		Preempt: true, SuspendToHost: true,
		fixedLegs: lg})
	// ~63 MB per node: fits a 100 MB node alone, but not alongside a
	// resident image of the same size.
	big := [3]int{256, 256, 120}
	v := &Job{Name: "v", Kind: KindPDE, Nodes: 2, Priority: 0, Est: 500 * time.Second, Problem: big}
	u := &Job{Name: "u", Kind: KindPDE, Nodes: 2, Priority: 9, Est: 30 * time.Second,
		Submit: 10 * time.Second, Problem: [3]int{64, 64, 16}}
	b := &Job{Name: "b", Kind: KindPDE, Nodes: 2, Priority: 5, Est: 20 * time.Second,
		Submit: 20 * time.Second, Problem: big}
	submitAll(t, s, []*Job{v, u, b})
	rep := s.Run()
	// v suspends into RAM [10,11); u runs [11,41). b (big footprint)
	// arrives at 20 but cannot start at 41 even though the nodes are
	// free: v's image pins ~63 MB of each node's 100 MB. Demotion
	// writes the image out over [41,50) — the 9s store leg the 1s host
	// drain skipped — and b starts at the settlement.
	if rep.HostSuspends != 1 || rep.Demotions != 1 {
		t.Fatalf("host suspensions %d / demotions %d, want 1 / 1", rep.HostSuspends, rep.Demotions)
	}
	if want := 9 * time.Second; rep.DemotionTime != want {
		t.Fatalf("demotion time %v, want %v (checkpoint cost minus host drain)", rep.DemotionTime, want)
	}
	if b.Start != 50*time.Second {
		t.Fatalf("memory-squeezed waiter started %v, want 50s (demotion settlement)", b.Start)
	}
	// The demoted job's image now lives in the store: its restore is
	// the full 5s store read, not the 1s host resume.
	if v.End != 565*time.Second {
		t.Fatalf("demoted job ended %v, want 565s (redispatch at 70s + 5s store restore + 490s)", v.End)
	}
	// Demotion charges the job no overhead — it held no nodes while
	// the image drained out — so busy time stays work + overhead with
	// only the 1s host drain and 5s store restore charged.
	if got := v.CheckpointOverhead(); got != 6*time.Second {
		t.Fatalf("demoted job overhead %v, want 6s (1s host drain + 5s store restore)", got)
	}
	if v.BusyTime() != v.Estimate()+v.CheckpointOverhead() {
		t.Fatalf("v busy %v != est %v + overhead %v", v.BusyTime(), v.Estimate(), v.CheckpointOverhead())
	}
	checkNoOverlap(t, rep.Jobs, 2)
}

// TestHostImageMigratesWhenHomeNodesTaken pins the migration path: a
// host-suspended gang whose home nodes are occupied at re-dispatch
// resumes elsewhere, paying the full store restore on the read link
// instead of the cheap bus resume (the image cannot teleport between
// nodes), and releasing the pinned memory.
func TestHostImageMigratesWhenHomeNodesTaken(t *testing.T) {
	lg := testLegs(10*time.Second, 5*time.Second, time.Second, time.Second)
	s := New(Config{Cluster: newTestCluster(16), Policy: Backfill,
		Preempt: true, SuspendToHost: true,
		fixedLegs: lg})
	// other takes [0,8) (higher priority, placed first), v its home
	// [8,16). The camper preempts v at 10 and squats on the home nodes
	// until long after v's re-dispatch.
	v := &Job{Name: "v", Nodes: 8, Priority: 0, Est: 500 * time.Second}
	other := &Job{Name: "other", Nodes: 8, Priority: 3, Est: 40 * time.Second}
	camper := &Job{Name: "camper", Nodes: 8, Priority: 9, Est: 200 * time.Second, Submit: 10 * time.Second}
	submitAll(t, s, []*Job{v, other, camper})
	rep := s.Run()
	if v.Preemptions() != 1 {
		t.Fatalf("v preempted %d times, want 1", v.Preemptions())
	}
	if rep.HostSuspends != 1 {
		t.Fatalf("host suspensions %d, want 1", rep.HostSuspends)
	}
	// other ends at 40; v re-dispatches onto its nodes — not home, the
	// camper holds that gang until 211 — so the image drains out of
	// the home RAM over the write link (the 9s store leg its
	// suspension skipped) and rides back as the 5s store restore: a
	// 14s prefix, End = 40 + 14 + 490 = 544.
	if v.End != 544*time.Second {
		t.Fatalf("migrated job ended %v, want 544s (9s outbound write + 5s store restore)", v.End)
	}
	if got := v.CheckpointOverhead(); got != 15*time.Second {
		t.Fatalf("migrated job overhead %v, want 15s (1s host drain + 9s write-out + 5s restore)", got)
	}
	if v.BusyTime() != v.Estimate()+v.CheckpointOverhead() {
		t.Fatalf("v busy %v != est %v + overhead %v", v.BusyTime(), v.Estimate(), v.CheckpointOverhead())
	}
	checkNoOverlap(t, rep.Jobs, 16)
}

// TestWaveAdmissionForcesStoreWhenImageBlocksBeneficiary pins the
// tier decision against the beneficiary's memory: when a victim's
// in-RAM image would pin the very memory the blocked job needs, the
// wave sends the victim to the store tier directly instead of
// suspending to host and immediately demoting — no demotion
// round-trip, no pinned image.
func TestWaveAdmissionForcesStoreWhenImageBlocksBeneficiary(t *testing.T) {
	lg := testLegs(10*time.Second, 5*time.Second, time.Second, time.Second)
	c := newTestCluster(2)
	for i := 0; i < 2; i++ {
		c.SetSpec(i, NodeSpec{GPUs: 1, MemBytes: 100 << 20, Group: c.Spec(i).Group})
	}
	s := New(Config{Cluster: c, Policy: Backfill,
		Preempt: true, SuspendToHost: true,
		fixedLegs: lg})
	big := [3]int{256, 256, 120} // ~63 MB of a 100 MB node
	v := &Job{Name: "v", Kind: KindPDE, Nodes: 2, Priority: 0, Est: 500 * time.Second, Problem: big}
	j := &Job{Name: "j", Kind: KindPDE, Nodes: 2, Priority: 9, Est: 20 * time.Second,
		Submit: 10 * time.Second, Problem: big}
	submitAll(t, s, []*Job{v, j})
	rep := s.Run()
	// A host suspension would leave j unplaceable (100 - 63 < 63):
	// the victim drains straight to the store over [10,20) and j
	// starts at the drain end — no in-RAM suspension, no demotion.
	if rep.HostSuspends != 0 || rep.Demotions != 0 {
		t.Fatalf("host suspensions %d / demotions %d, want 0 / 0 (store tier forced)",
			rep.HostSuspends, rep.Demotions)
	}
	if j.Start != 20*time.Second {
		t.Fatalf("beneficiary started %v, want 20s (one direct store drain)", j.Start)
	}
	if v.End != 535*time.Second {
		t.Fatalf("victim ended %v, want 535s (redispatch at 40s + 5s store restore + 490s)", v.End)
	}
	if got := v.CheckpointOverhead(); got != 15*time.Second {
		t.Fatalf("victim overhead %v, want 15s (full store drain + restore)", got)
	}
	if v.BusyTime() != v.Estimate()+v.CheckpointOverhead() {
		t.Fatalf("v busy %v != est %v + overhead %v", v.BusyTime(), v.Estimate(), v.CheckpointOverhead())
	}
	checkNoOverlap(t, rep.Jobs, 2)
}

// TestDemotionEvictsOnlyNeededImages pins the smallest-sufficient-set
// contract: an image whose trial release contributed nothing to the
// blocked job (its home nodes are occupied anyway) stays resident —
// only the image actually in the way pays the store write — and the
// demotion settlement is a real shadow event, so a short filler
// backfills the window in front of the waiter's reservation.
func TestDemotionEvictsOnlyNeededImages(t *testing.T) {
	lg := testLegs(10*time.Second, 5*time.Second, time.Second, time.Second)
	c := newTestCluster(4)
	for i := 0; i < 4; i++ {
		c.SetSpec(i, NodeSpec{GPUs: 1, MemBytes: 100 << 20, Group: c.Spec(i).Group})
	}
	s := New(Config{Cluster: c, Policy: Backfill,
		Preempt: true, SuspendToHost: true,
		fixedLegs: lg})
	big := [3]int{256, 256, 120} // ~63 MB per node
	small := [3]int{64, 64, 16}  // ~0.5 MB per node
	// a takes nodes [0,2) (placed first on priority), b takes [2,4);
	// both suspend into RAM when u preempts the whole machine.
	a := &Job{Name: "a", Kind: KindPDE, Nodes: 2, Priority: 1, Est: 500 * time.Second, Problem: big}
	b := &Job{Name: "b", Kind: KindPDE, Nodes: 2, Priority: 0, Est: 500 * time.Second, Problem: big}
	u := &Job{Name: "u", Kind: KindPDE, Nodes: 4, Priority: 9, Est: 30 * time.Second,
		Submit: 10 * time.Second, Problem: small}
	// camper lands on a's home [0,2) when u ends; j then needs 63 MB
	// on two nodes and only b's image is truly in its way. The camper
	// leaves at 66, before any other gang frees, so a resumes home.
	camper := &Job{Name: "camper", Kind: KindPDE, Nodes: 2, Priority: 8, Est: 25 * time.Second,
		Submit: 15 * time.Second, Problem: small}
	j := &Job{Name: "j", Kind: KindPDE, Nodes: 2, Priority: 5, Est: 20 * time.Second,
		Submit: 16 * time.Second, Problem: big}
	// filler fits the 9s demotion window exactly: backfills [41,50).
	filler := &Job{Name: "filler", Kind: KindPDE, Nodes: 2, Priority: 0, Est: 9 * time.Second,
		Submit: 16 * time.Second, Problem: small}
	submitAll(t, s, []*Job{a, b, u, camper, j, filler})
	rep := s.Run()
	// Both victims suspend in RAM in parallel [10,11); u runs [11,41).
	// At 41 camper takes a's home; j is memory-blocked. The trial
	// releases a's image first (useless: camper owns those nodes),
	// then b's (sufficient) — minimization keeps a resident and
	// demotes only b, whose write settles at 50.
	if rep.HostSuspends != 2 {
		t.Fatalf("host suspensions %d, want 2", rep.HostSuspends)
	}
	if rep.Demotions != 1 || rep.DemotionTime != 9*time.Second {
		t.Fatalf("demotions %d (%v), want exactly 1 paying the 9s skipped store leg",
			rep.Demotions, rep.DemotionTime)
	}
	if j.Start != 50*time.Second {
		t.Fatalf("waiter started %v, want 50s (b's demotion settlement)", j.Start)
	}
	// The settlement is a shadow event: the filler backfills the
	// [41,50) window instead of being frozen behind a now-bound shadow.
	if filler.Start != 41*time.Second || !filler.Backfilled() {
		t.Fatalf("filler started %v (backfilled=%v), want a backfill at 41s into the demotion window",
			filler.Start, filler.Backfilled())
	}
	// a kept its image: cheap host resume at its home once the camper
	// leaves at 66 (End = 66 + 1 + 490). b paid the full store restore.
	if a.End != 557*time.Second {
		t.Fatalf("kept image ended %v, want 557s (home resume at 66s)", a.End)
	}
	if got := a.CheckpointOverhead(); got != 2*time.Second {
		t.Fatalf("kept image's overhead %v, want 2s (host drain + home resume)", got)
	}
	if got := b.CheckpointOverhead(); got != 6*time.Second {
		t.Fatalf("demoted image's overhead %v, want 6s (host drain + store restore)", got)
	}
	for _, x := range []*Job{a, b, j, filler} {
		if x.BusyTime() != x.Estimate()+x.CheckpointOverhead() {
			t.Fatalf("%s busy %v != est %v + overhead %v",
				x, x.BusyTime(), x.Estimate(), x.CheckpointOverhead())
		}
	}
	checkNoOverlap(t, rep.Jobs, 4)
}

// memSqueezedCluster returns an n-node cluster whose nodes carry
// 100 MB, the size the memory-pressure scenarios are built around.
func memSqueezedCluster(n int) *Cluster {
	c := newTestCluster(n)
	for i := 0; i < n; i++ {
		c.SetSpec(i, NodeSpec{GPUs: 1, MemBytes: 100 << 20, Group: c.Spec(i).Group})
	}
	return c
}

// TestForcedStoreTierRespectsFutileGuard pins the interaction between
// the tier flip and the futile-checkpoint rule: a victim whose cheap
// host drain passes the guard but whose image would block the
// beneficiary must be re-judged at the store tariff — if the store
// drain outlasts its remaining runtime, the wave is abandoned and the
// beneficiary waits for natural completion, which frees the nodes
// sooner.
func TestForcedStoreTierRespectsFutileGuard(t *testing.T) {
	lg := testLegs(10*time.Second, 5*time.Second, time.Second, time.Second)
	s := New(Config{Cluster: memSqueezedCluster(2), Policy: Backfill,
		Preempt: true, SuspendToHost: true,
		fixedLegs: lg})
	big := [3]int{256, 256, 120}
	v := &Job{Name: "v", Kind: KindPDE, Nodes: 2, Priority: 0, Est: 500 * time.Second, Problem: big}
	j := &Job{Name: "j", Kind: KindPDE, Nodes: 2, Priority: 9, Est: 20 * time.Second,
		Submit: 496 * time.Second, Problem: big}
	submitAll(t, s, []*Job{v, j})
	rep := s.Run()
	// 4s of work left: the 1s host drain passes the futile guard, but
	// the image would pin j's memory, and the forced 10s store drain
	// fails it — no wave, j starts at v's 500s completion.
	if rep.PreemptEvents != 0 || rep.HostSuspends != 0 {
		t.Fatalf("preempt events %d / host suspensions %d, want none (wave abandoned as futile)",
			rep.PreemptEvents, rep.HostSuspends)
	}
	if j.Start != 500*time.Second {
		t.Fatalf("beneficiary started %v, want 500s (victim's natural completion)", j.Start)
	}
	checkNoOverlap(t, rep.Jobs, 2)
}

// TestSliceYieldFlipRespectsFutileGuard is the quantum-boundary mirror:
// when yielding would have to take the store tier (the gang's image
// would pin the waiter's memory), a tail shorter than the store drain
// extends in place instead of suspending.
func TestSliceYieldFlipRespectsFutileGuard(t *testing.T) {
	lg := testLegs(10*time.Second, 5*time.Second, time.Second, time.Second)
	s := New(Config{Cluster: memSqueezedCluster(2), Policy: Backfill,
		Quantum: 300 * time.Second, SuspendToHost: true,
		fixedLegs: lg})
	big := [3]int{256, 256, 120}
	a := &Job{Name: "a", Kind: KindPDE, Nodes: 2, Est: 303 * time.Second, Problem: big}
	b := &Job{Name: "b", Kind: KindPDE, Nodes: 2, Est: 30 * time.Second,
		Submit: 5 * time.Second, Problem: big}
	submitAll(t, s, []*Job{a, b})
	rep := s.Run()
	// At the 300s boundary a has a 3s tail: longer than the 1s host
	// drain (not futile there), but a's image would block b, and the
	// forced 10s store drain fails the guard — the slice extends.
	if rep.SliceEvents != 0 {
		t.Fatalf("%d slice suspensions, want 0 (store-tier yield was futile)", rep.SliceEvents)
	}
	if a.End != 303*time.Second || b.Start != 303*time.Second {
		t.Fatalf("a ended %v / b started %v, want 303s run-out and handoff", a.End, b.Start)
	}
	checkNoOverlap(t, rep.Jobs, 2)
}

// TestWaveForceStoreIsMinimized pins the flip minimization: a wave
// that must force some victims to the store tier keeps the cheap host
// tier for a victim whose (small) image never blocked the beneficiary
// — only the image actually in the way pays the store drain.
func TestWaveForceStoreIsMinimized(t *testing.T) {
	lg := testLegs(10*time.Second, 5*time.Second, time.Second, time.Second)
	s := New(Config{Cluster: memSqueezedCluster(4), Policy: Backfill,
		Preempt: true, SuspendToHost: true,
		fixedLegs: lg})
	tiny := [3]int{160, 160, 103} // ~20 MB image: nodes stay eligible
	big := [3]int{256, 256, 134}  // ~67 MB: does not fit beside a big image
	wide := [3]int{256, 256, 120} // ~60 MB image: blocks a big placement
	v1 := &Job{Name: "v1", Kind: KindPDE, Nodes: 2, Priority: 0, Est: 500 * time.Second, Problem: tiny}
	v2 := &Job{Name: "v2", Kind: KindPDE, Nodes: 2, Priority: 1, Est: 500 * time.Second, Problem: wide}
	j := &Job{Name: "j", Kind: KindPDE, Nodes: 4, Priority: 9, Est: 20 * time.Second,
		Submit: 10 * time.Second, Problem: big}
	submitAll(t, s, []*Job{v1, v2, j})
	rep := s.Run()
	// Both victims drain at 10. v1's 20 MB image leaves 80 MB free —
	// j fits beside it — so v1 suspends in RAM [10,11); v2's 60 MB
	// image is genuinely in the way, so v2 is forced to the store
	// [10,20), and j starts when that drain ends.
	if rep.PreemptEvents != 2 {
		t.Fatalf("preempt events %d, want one wave of two victims", rep.PreemptEvents)
	}
	if rep.HostSuspends != 1 {
		t.Fatalf("host suspensions %d, want exactly 1 (only the harmless image stays in RAM)",
			rep.HostSuspends)
	}
	if j.Start != 20*time.Second {
		t.Fatalf("beneficiary started %v, want 20s (forced store drain end)", j.Start)
	}
	if got := v1.CheckpointOverhead(); got != 2*time.Second {
		t.Fatalf("host-tier victim overhead %v, want 2s", got)
	}
	if got := v2.CheckpointOverhead(); got != 15*time.Second {
		t.Fatalf("forced-store victim overhead %v, want 15s", got)
	}
	if rep.Demotions != 0 {
		t.Fatalf("%d demotions, want none (the tier was planned, not corrected)", rep.Demotions)
	}
	checkNoOverlap(t, rep.Jobs, 4)
}

// TestMidRestorePreemptionNeverSuspendsToHost pins the state-location
// rule: a gang preempted while its store restore is still in flight
// has no complete state on its nodes — the authoritative image sits in
// the store — so its checkpoint must take the store path again, not a
// bus-only "suspension" of state that never arrived.
func TestMidRestorePreemptionNeverSuspendsToHost(t *testing.T) {
	lg := testLegs(10*time.Second, 10*time.Second, time.Second, time.Second)
	s := New(Config{Cluster: memSqueezedCluster(2), Policy: Backfill,
		Preempt: true, SuspendToHost: true,
		fixedLegs: lg})
	big := [3]int{256, 256, 120}
	v := &Job{Name: "v", Kind: KindPDE, Nodes: 2, Priority: 0, Est: 500 * time.Second, Problem: big}
	u1 := &Job{Name: "u1", Kind: KindPDE, Nodes: 2, Priority: 9, Est: 20 * time.Second,
		Submit: 10 * time.Second, Problem: big}
	u2 := &Job{Name: "u2", Kind: KindPDE, Nodes: 2, Priority: 9, Est: 20 * time.Second,
		Submit: 43 * time.Second, Problem: big}
	submitAll(t, s, []*Job{v, u1, u2})
	rep := s.Run()
	// u1's wave forces v to the store (its image would block u1):
	// drain [10,20), u1 [20,40). v re-dispatches at 40 with its store
	// restore in flight [40,50) when u2 preempts it at 43 — mid
	// transfer, so the host tier is off the table and v drains to the
	// store again [43,53).
	if rep.HostSuspends != 0 {
		t.Fatalf("host suspensions %d, want 0 — v's state never reached its nodes", rep.HostSuspends)
	}
	if u2.Start != 53*time.Second {
		t.Fatalf("u2 started %v, want 53s (a full store drain, not a 1s fake suspension)", u2.Start)
	}
	if v.End != 573*time.Second {
		t.Fatalf("v ended %v, want 573s (re-dispatch at 73s + 10s store restore + 490s)", v.End)
	}
	if v.BusyTime() != v.Estimate()+v.CheckpointOverhead() {
		t.Fatalf("v busy %v != est %v + overhead %v", v.BusyTime(), v.Estimate(), v.CheckpointOverhead())
	}
	checkNoOverlap(t, rep.Jobs, 2)
}

// TestMigrationPreemptedDuringWriteLegKeepsStatsExact pins the
// RestoreWait refund cap: a migrating gang preempted during its
// outbound write leg was never charged read-queue wait, so nothing is
// deducted — the statistic cannot go negative — and the busy ≡ work +
// overhead invariant survives the aborted migration.
func TestMigrationPreemptedDuringWriteLegKeepsStatsExact(t *testing.T) {
	lg := testLegs(10*time.Second, 5*time.Second, time.Second, time.Second)
	s := New(Config{Cluster: newTestCluster(16), Policy: Backfill,
		Preempt: true, SuspendToHost: true,
		fixedLegs: lg})
	v := &Job{Name: "v", Nodes: 8, Priority: 0, Est: 500 * time.Second}
	other := &Job{Name: "other", Nodes: 8, Priority: 3, Est: 40 * time.Second}
	camper := &Job{Name: "camper", Nodes: 8, Priority: 9, Est: 200 * time.Second, Submit: 10 * time.Second}
	u2 := &Job{Name: "u2", Nodes: 8, Priority: 9, Est: 20 * time.Second, Submit: 45 * time.Second}
	submitAll(t, s, []*Job{v, other, camper, u2})
	rep := s.Run()
	// v suspends to host [10,11); camper squats on its home. At 40 v
	// migrates: write leg [40,49), read [49,54). u2 preempts it at 45
	// — inside the write leg, before any read wait was served — so
	// RestoreWait stays exactly zero and v drains to the store (its
	// state is mid-flight), queued behind its own migration write:
	// [49,59). u2 starts at 59.
	if rep.RestoreWait != 0 {
		t.Fatalf("restore wait %v, want exactly 0 (no read wait was ever charged)", rep.RestoreWait)
	}
	if rep.DrainWait != 4*time.Second {
		t.Fatalf("drain wait %v, want 4s (v's drain queued behind its own migration write)", rep.DrainWait)
	}
	if u2.Start != 59*time.Second {
		t.Fatalf("u2 started %v, want 59s", u2.Start)
	}
	if v.End != 574*time.Second {
		t.Fatalf("v ended %v, want 574s (re-dispatch at 79s + 5s store restore + 490s)", v.End)
	}
	if v.BusyTime() != v.Estimate()+v.CheckpointOverhead() {
		t.Fatalf("v busy %v != est %v + overhead %v", v.BusyTime(), v.Estimate(), v.CheckpointOverhead())
	}
	checkNoOverlap(t, rep.Jobs, 16)
}

// TestEvictionWindowDoesNotCascade pins the in-flight-settlement
// credit: while one image's demotion write is still settling, further
// scheduling passes (any event lands one) must not evict additional
// images the settling one already makes unnecessary — the pressure
// test counts memory that is on its way out as gone.
func TestEvictionWindowDoesNotCascade(t *testing.T) {
	lg := testLegs(10*time.Second, 5*time.Second, time.Second, time.Second)
	s := New(Config{Cluster: memSqueezedCluster(2), Policy: Backfill,
		Preempt: true, SuspendToHost: true,
		fixedLegs: lg})
	imgProb := [3]int{192, 192, 102} // ~30 MB image per node
	small := [3]int{64, 64, 16}
	// Two 30 MB images accumulate on the two nodes; j needs ~52 MB —
	// blocked by the pair, unblocked by either one leaving.
	v1 := &Job{Name: "v1", Kind: KindPDE, Nodes: 2, Priority: 0, Est: 500 * time.Second, Problem: imgProb}
	u1 := &Job{Name: "u1", Kind: KindPDE, Nodes: 2, Priority: 9, Est: 30 * time.Second,
		Submit: 10 * time.Second, Problem: small}
	v2 := &Job{Name: "v2", Kind: KindPDE, Nodes: 2, Priority: 1, Est: 500 * time.Second,
		Submit: 12 * time.Second, Problem: imgProb}
	u2 := &Job{Name: "u2", Kind: KindPDE, Nodes: 2, Priority: 9, Est: 30 * time.Second,
		Submit: 45 * time.Second, Problem: small}
	j := &Job{Name: "j", Kind: KindPDE, Nodes: 2, Priority: 5, Est: 20 * time.Second,
		Submit: 50 * time.Second, Problem: [3]int{256, 256, 100}}
	// noise arrives inside v1's eviction window [76,85): its pass must
	// not trigger a second demotion — and being short, it backfills
	// the window instead.
	noise := &Job{Name: "noise", Kind: KindPDE, Nodes: 2, Priority: 0, Est: 5 * time.Second,
		Submit: 78 * time.Second, Problem: small}
	submitAll(t, s, []*Job{v1, u1, v2, u2, j, noise})
	rep := s.Run()
	// v1 suspends in RAM at 10, v2 at 45; u2 ends at 76 with j blocked
	// on memory. v1 (lowest ID) demotes over [76,85); the noise
	// arrival at 78 re-runs the pass mid-window.
	if rep.HostSuspends != 2 {
		t.Fatalf("host suspensions %d, want 2", rep.HostSuspends)
	}
	if rep.Demotions != 1 {
		t.Fatalf("demotions %d, want exactly 1 — the mid-window pass cascaded", rep.Demotions)
	}
	if j.Start != 85*time.Second {
		t.Fatalf("waiter started %v, want 85s (v1's settlement)", j.Start)
	}
	if noise.Start != 78*time.Second || !noise.Backfilled() {
		t.Fatalf("noise started %v (backfilled=%v), want a backfill at 78s inside the window",
			noise.Start, noise.Backfilled())
	}
	for _, x := range []*Job{v1, v2, j, noise} {
		if x.BusyTime() != x.Estimate()+x.CheckpointOverhead() {
			t.Fatalf("%s busy %v != est %v + overhead %v",
				x, x.BusyTime(), x.Estimate(), x.CheckpointOverhead())
		}
	}
	checkNoOverlap(t, rep.Jobs, 2)
}

// TestPropertyMixEngagesSuspendToHost guards the property crossing
// against vacuity: the randomized arrival-staggered mix the invariant
// suite replays must actually drive the host tier, or the
// policies × quantum × preempt × suspend-to-host sweep would prove
// nothing about in-RAM suspension accounting.
func TestPropertyMixEngagesSuspendToHost(t *testing.T) {
	lg := testLegs(200*time.Millisecond, 100*time.Millisecond, 50*time.Millisecond, 25*time.Millisecond)
	s := New(Config{Cluster: newTestCluster(32), Policy: Backfill,
		Preempt: true, Quantum: 5 * time.Second, SuspendToHost: true,
		fixedLegs: lg})
	submitAll(t, s, SyntheticStream(1, 200, 32, 5*time.Second))
	if rep := s.Run(); rep.HostSuspends == 0 {
		t.Fatal("property mix never suspended to host — the crossed invariants are vacuous")
	}
}

// TestSampleTraceSuspendToHostCutsOverhead is the acceptance
// comparison on the bundled trace: with preemption and a 300s quantum,
// the suspend-to-host tier measurably cuts the total checkpoint cost —
// charged overhead (drain/restore transfers plus both link-direction
// queue waits) plus demotion writes — against store-only suspension,
// with the default perfmodel-derived costs.
func TestSampleTraceSuspendToHostCutsOverhead(t *testing.T) {
	recs, err := LoadTrace("../../examples/traces/sample.swf")
	if err != nil {
		t.Fatal(err)
	}
	run := func(suspend bool) Report {
		jobs, actual := TraceJobs(recs, 32)
		s := New(Config{Cluster: newTestCluster(32), Policy: Backfill,
			Actual: actual, Preempt: true, Quantum: 300 * time.Second,
			SuspendToHost: suspend})
		submitAll(t, s, jobs)
		rep := s.Run()
		if rep.Failed != 0 || len(rep.Jobs) != len(recs) {
			t.Fatalf("suspend=%v: finished %d of %d jobs, %d failed",
				suspend, len(rep.Jobs), len(recs), rep.Failed)
		}
		checkNoOverlap(t, rep.Jobs, 32)
		return rep
	}
	store := run(false)
	host := run(true)
	if store.PreemptEvents+store.SliceEvents == 0 {
		t.Fatal("trace never checkpointed — the comparison is vacuous")
	}
	if host.HostSuspends == 0 {
		t.Fatal("suspend-to-host never engaged on the sample trace")
	}
	storeTotal := store.CheckpointOverhead + store.DemotionTime
	hostTotal := host.CheckpointOverhead + host.DemotionTime
	if hostTotal >= storeTotal {
		t.Fatalf("suspend-to-host total checkpoint cost %v not below store-only %v",
			hostTotal, storeTotal)
	}
}
