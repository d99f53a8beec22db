// Clusterctl is the batch front door to the simulated GPU cluster: it
// submits a batch of LBM, distributed-CG, and heat-stencil jobs to the
// internal/batch scheduler — a deterministic synthetic mix, or a
// recorded workload replayed from a Standard-Workload-Format trace —
// drains the queue on the virtual clock, and prints the operator
// report (makespan, per-node utilization bars, queue waits, placement
// and preemption stats) under any of the four queue policies and the
// two placement engines.
//
// Usage:
//
//	clusterctl -nodes 32 -jobs 200 -policy both -seed 42
//	clusterctl -policy all -preempt            # compare all four policies
//	clusterctl -trace examples/traces/sample.swf -policy fairshare
//	clusterctl -policy all -quantum 300s       # time-sliced gang scheduling
//	clusterctl -preempt -suspend-to-host       # in-RAM suspension tier
//	clusterctl -preempt -store-duplex half     # drains and restores share the wire
//	clusterctl -preempt -store-bandwidth 30    # slower checkpoint store (MB/s)
//	clusterctl -mtbf 2h                        # seeded failure storm (node crashes, trunk outages)
//	clusterctl -faults storm.txt -ckpt-interval 5m  # replay a fault trace, bank proactively
//	clusterctl -placement both                 # compare placement engines too
//	clusterctl -execute -jobs 8                # actually run the workloads
//	clusterctl -bench-json BENCH_batch.json    # emit the CI perf snapshot
//	clusterctl -bench-json B.json -bench-scale # + the 1M-job/10k-node drain
//	clusterctl -trace-out run.json             # Perfetto trace of the first run
//	clusterctl -explain 7                      # why job 7 waited, pass by pass
//	clusterctl -metrics-out -                  # Prometheus metrics to stdout
//
// Subcommands turn the same scheduler into a live daemon and talk to
// it over HTTP (see serve.go):
//
//	clusterctl serve -nodes 32 -compress 60    # real-time submit/cancel/query daemon
//	clusterctl submit -gang 4 -est 30m         # POST a job to it
//	clusterctl queue                           # live queue snapshot
//	clusterctl info 7                          # one job, with its blocker breakdown
//	clusterctl cancel 7                        # withdraw it, wherever it is
//	clusterctl slam -jobs 200 -compress 5000   # SWF load generator, latency percentiles
//
// With -quantum the comparison table gains a run-to-completion EASY
// baseline row and a short-job wait column (jobs with estimates at or
// below the mix median), the population time-slicing exists to help.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"gpucluster/internal/batch"
	"gpucluster/internal/netsim"
)

type result struct {
	placement batch.Placement
	policy    batch.Policy
	rep       batch.Report
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind a testable seam: flags parse from
// args, reports print to stdout, errors print to stderr, and the return
// value is the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	// Subcommand dispatch: "clusterctl serve" and its client verbs live
	// in serve.go; a bare flag invocation stays the classic one-shot
	// virtual-time study.
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, ok := subcommands[args[0]]
		if !ok {
			fmt.Fprintf(stderr, "clusterctl: unknown command %q (want serve, submit, cancel, queue, info, or slam — or flags only)\n", args[0])
			return 2
		}
		return cmd(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("clusterctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nodes := fs.Int("nodes", 32, "cluster size (the paper's machine had 32 compute nodes)")
	jobs := fs.Int("jobs", 200, "number of jobs in the synthetic mixed batch")
	policy := fs.String("policy", "both", "queue policy: fifo, easy, conservative, fairshare, both (fifo+easy), or all")
	placement := fs.String("placement", "topo", "gang placement: first-fit, topo, or both (compare)")
	seed := fs.Int64("seed", 42, "workload generator seed")
	trunk := fs.Float64("trunk-slowdown", 1.1, "runtime multiplier for gangs spanning the stacking trunk")
	preempt := fs.Bool("preempt", false, "enable priority preemption with checkpoint/restart")
	quantum := fs.Duration("quantum", 0, "time-slice quantum for gang scheduling (0 disables; e.g. 300s)")
	suspendToHost := fs.Bool("suspend-to-host", false, "suspend checkpoint images into node RAM when they fit (requires -preempt or -quantum)")
	storeDuplex := fs.String("store-duplex", "full", "checkpoint-store link mode: full (independent read/write timelines) or half (one shared)")
	storeBW := fs.Float64("store-bandwidth", 0, "checkpoint-store link bandwidth in MB/s (0 uses the paper's Gigabit model)")
	tracePath := fs.String("trace", "", "replay an SWF-style workload trace instead of the synthetic mix")
	faultsPath := fs.String("faults", "", "inject failures from this fault trace file (crash/flap/trunk lines, seconds)")
	mtbf := fs.Duration("mtbf", 0, "generate a seeded failure storm with this per-machine MTBF (exclusive with -faults)")
	ckptInterval := fs.Duration("ckpt-interval", 0, "proactive checkpoint interval under failures (requires -faults or -mtbf)")
	execute := fs.Bool("execute", false, "actually run each job's workload on the functional simulators (use few jobs)")
	benchJSON := fs.String("bench-json", "", "write a scheduler throughput/makespan snapshot to this file and exit")
	benchScale := fs.Bool("bench-scale", false, "with -bench-json: also drain the pinned 1M-job queue on a 10k-node machine and record its jobs/s (takes minutes)")
	traceOut := fs.String("trace-out", "", "write a Chrome trace-event JSON (ui.perfetto.dev) of the first run to this file")
	explainID := fs.Int("explain", 0, "print the per-pass blocker breakdown for this job ID after the first run (0 disables)")
	metricsOut := fs.String("metrics-out", "", "write Prometheus text-format metrics of the first run to this file (- for stdout)")
	verbose := fs.Bool("v", false, "print the per-job table")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "clusterctl: "+format+"\n", a...)
		return 1
	}

	if *nodes <= 0 {
		return fail("-nodes %d: cluster size must be positive", *nodes)
	}
	if *jobs < 0 {
		return fail("-jobs %d: job count must be non-negative", *jobs)
	}
	duplex, err := validateCheckpointFlags(*suspendToHost, *preempt, *quantum, *storeDuplex, *storeBW)
	if err != nil {
		return fail("%v", err)
	}
	if *explainID < 0 {
		return fail("-explain %d: job IDs are positive", *explainID)
	}
	faults, err := resolveFaultFlags(*faultsPath, *mtbf, *ckptInterval, *nodes, *seed)
	if err != nil {
		return fail("%v", err)
	}

	if *benchJSON != "" {
		if err := writeBenchJSON(stdout, *benchJSON, *nodes, *seed, *benchScale); err != nil {
			return fail("%v", err)
		}
		return 0
	}
	if *benchScale {
		return fail("-bench-scale only applies together with -bench-json")
	}

	var policies []batch.Policy
	switch *policy {
	case "both":
		policies = []batch.Policy{batch.FIFO, batch.Backfill}
	case "all":
		policies = batch.Policies()
	default:
		p, err := batch.ParsePolicy(*policy)
		if err != nil {
			return fail("%v", err)
		}
		policies = []batch.Policy{p}
	}
	placements := []batch.Placement{batch.PlaceFirstFit, batch.PlaceTopo}
	if *placement != "both" {
		p, err := batch.ParsePlacement(*placement)
		if err != nil {
			return fail("%v", err)
		}
		placements = []batch.Placement{p}
	}

	// One job-spec slice serves every scheduler run: Submit resolves
	// defaults into scheduler-owned fields, so the specs stay pristine
	// across replays.
	var mix []*batch.Job
	var actual func(*batch.Job, time.Duration) time.Duration
	if *tracePath != "" {
		recs, err := batch.LoadTrace(*tracePath)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return fail("-trace %s: no such file (give the path to an SWF workload trace, e.g. examples/traces/sample.swf)", *tracePath)
			}
			return fail("%v", err)
		}
		mix, actual = batch.TraceJobs(recs, *nodes)
		fmt.Fprintf(stdout, "clusterctl: replaying %d trace jobs from %s on %d nodes\n\n", len(mix), *tracePath, *nodes)
	} else {
		mix = batch.SyntheticMix(*seed, *jobs, *nodes)
		fmt.Fprintf(stdout, "clusterctl: %d jobs on %d nodes (seed %d)\n\n", *jobs, *nodes, *seed)
	}
	if *execute {
		shrink(mix, *nodes)
	}
	// Observability attaches to the first run of the grid (with one
	// policy and one placement — the recommended way to use these
	// flags — that IS the run): the recorder feeds -trace-out and
	// -explain, the registry feeds -metrics-out.
	var rec *batch.MemRecorder
	if *traceOut != "" || *explainID > 0 {
		rec = &batch.MemRecorder{}
	}
	var reg *batch.Registry
	if *metricsOut != "" {
		reg = batch.NewRegistry()
	}
	// One config builder serves every run, so a future knob cannot be
	// wired into the policy grid but silently left off the baseline.
	makeConfig := func(pol batch.Policy, plc batch.Placement, quantum time.Duration) batch.Config {
		return batch.Config{
			Cluster:            batch.NewCluster(*nodes, netsim.GigabitSwitch(*nodes)),
			Policy:             pol,
			Placement:          plc,
			Actual:             actual,
			TrunkSlowdown:      *trunk,
			Preempt:            *preempt,
			Quantum:            quantum,
			SuspendToHost:      *suspendToHost,
			StoreDuplex:        duplex,
			StoreBandwidth:     *storeBW * 1e6,
			Faults:             faults,
			CheckpointInterval: *ckptInterval,
		}
	}
	runMix := func(cfg batch.Config) (batch.Report, error) {
		s := batch.New(cfg)
		for _, j := range mix {
			if err := s.Submit(j); err != nil {
				return batch.Report{}, err
			}
		}
		return s.Run(), nil
	}
	var results []result
	var firstRep batch.Report                         // the instrumented run's report
	rtcEasy := make(map[batch.Placement]batch.Report) // run-to-completion baseline under -quantum
	for _, plc := range placements {
		for _, pol := range policies {
			cfg := makeConfig(pol, plc, *quantum)
			if *execute {
				cfg.Execute = batch.SimExecutor{TracerParticles: 1000}
			}
			if len(results) == 0 {
				// Assign through the nil checks: a typed-nil
				// *MemRecorder stored in the interface field would
				// defeat the scheduler's rec != nil fast path.
				if rec != nil {
					cfg.Recorder = rec
				}
				cfg.Metrics = reg
			}
			rep, err := runMix(cfg)
			if err != nil {
				return fail("%v", err)
			}
			fmt.Fprint(stdout, rep)
			if *verbose {
				printJobs(stdout, rep)
			}
			fmt.Fprintln(stdout)
			if len(results) == 0 {
				firstRep = rep
			}
			results = append(results, result{placement: plc, policy: pol, rep: rep})
		}
		if *quantum > 0 {
			rep, err := runMix(makeConfig(batch.Backfill, plc, 0))
			if err != nil {
				return fail("%v", err)
			}
			rtcEasy[plc] = rep
		}
	}

	if len(policies) > 1 || *quantum > 0 {
		row := func(label string, f, r batch.Report) {
			fmt.Fprintf(stdout, "  %-13s makespan %8v (%s), utilization %5.1f%%, avg wait %8v, short wait %8v, ckpt wait %-11s %d backfilled, %d preempted, %d sliced\n",
				label, batch.RoundDuration(r.Makespan), gain(f.Makespan, r.Makespan),
				100*r.Utilization, batch.RoundDuration(r.AvgWait),
				batch.RoundDuration(r.ShortWait), ckptWaitCol(r)+",",
				r.Backfilled, r.Preempted, r.Sliced)
		}
		for _, plc := range placements {
			f := find(results, plc, policies[0])
			fmt.Fprintf(stdout, "policy comparison (placement %s, baseline %s; short = est <= %v):\n",
				plc, policies[0], batch.RoundDuration(f.ShortCut))
			for _, pol := range policies {
				row(pol.String(), f, find(results, plc, pol))
			}
			if *quantum > 0 {
				base := rtcEasy[plc]
				row("easy/rtc", f, base)
				for _, pol := range policies {
					if pol != batch.Backfill {
						continue
					}
					r := find(results, plc, pol)
					fmt.Fprintf(stdout, "  timeslice quantum %v vs run-to-completion easy: short-job avg wait %v -> %v (%s)\n",
						*quantum, batch.RoundDuration(base.ShortWait),
						batch.RoundDuration(r.ShortWait),
						gain(base.ShortWait, r.ShortWait))
				}
			}
		}
	}
	if len(placements) == 2 {
		for _, pol := range policies {
			ff := find(results, batch.PlaceFirstFit, pol)
			tp := find(results, batch.PlaceTopo, pol)
			fmt.Fprintf(stdout, "policy %s, topo vs first-fit: makespan %v -> %v (%s), utilization %.1f%% -> %.1f%%, trunk-crossing gangs %d -> %d, split gangs %d\n",
				pol, batch.RoundDuration(ff.Makespan), batch.RoundDuration(tp.Makespan),
				gain(ff.Makespan, tp.Makespan),
				100*ff.Utilization, 100*tp.Utilization,
				ff.TrunkCrossed, tp.TrunkCrossed, tp.SplitGangs)
		}
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fail("-trace-out: %v", err)
		}
		werr := firstRep.WriteChromeTrace(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fail("-trace-out %s: %v", *traceOut, werr)
		}
		fmt.Fprintf(stdout, "clusterctl: wrote Chrome trace %s (%d events; open in ui.perfetto.dev)\n",
			*traceOut, len(firstRep.Events))
	}
	if *explainID > 0 {
		known := false
		for _, j := range firstRep.Jobs {
			if j.ID == *explainID {
				known = true
				break
			}
		}
		if !known {
			return fail("-explain %d: no such job (the run had IDs 1..%d)", *explainID, len(firstRep.Jobs))
		}
		e := firstRep.Explain(*explainID)
		fmt.Fprintln(stdout, e)
		if dom := e.Dominant(); dom != batch.ReasonNone {
			fmt.Fprintf(stdout, "  dominant blocker: %s\n", dom)
		}
	}
	if *metricsOut != "" {
		w := stdout
		var f *os.File
		if *metricsOut != "-" {
			f, err = os.Create(*metricsOut)
			if err != nil {
				return fail("-metrics-out: %v", err)
			}
			w = f
		}
		werr := reg.WritePrometheus(w)
		if f != nil {
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
		}
		if werr != nil {
			return fail("-metrics-out %s: %v", *metricsOut, werr)
		}
		if f != nil {
			fmt.Fprintf(stdout, "clusterctl: wrote Prometheus metrics %s\n", *metricsOut)
		}
	}

	for _, r := range results {
		if r.rep.Failed > 0 {
			return 1
		}
	}
	return 0
}

// benchSnapshot is the BENCH_batch.json schema: scheduler throughput on
// a large queue, the default-mix makespan under every policy, and —
// since schema 2 — the checkpoint cost model's trajectory: store-link
// queue waits (drain + restore) and total checkpoint overhead from a
// contended preempt+quantum run per policy, with and without the
// suspend-to-host tier. Schema 3 adds the observability tax: the same
// throughput queue drained with a MemRecorder attached, so a recorder
// regression shows up next to the bare baseline. Schema 4 adds the
// serving front door: submit-to-dispatch latency percentiles and
// accepted-job throughput from a pinned slam run against an in-process
// clusterctl-serve daemon.
// Schema 5 adds the datacenter-scale row: the pinned 1M-job/10k-node
// drain (indexed placement, incremental shadows, calendar event queue)
// and its jobs/s — zero in snapshots written without -bench-scale, so
// the quick bench job and the scale job share one schema.
// Schema 6 adds the failure-storm row: goodput, lost work, and
// availability from a pinned seeded storm (GenFaultPlan over the
// contended stream mix with proactive checkpointing on), so a recovery
// regression — more work lost, less goodput through the same storm —
// shows up in CI next to the fault-free baselines.
type benchSnapshot struct {
	Schema        int                `json:"schema"`
	Nodes         int                `json:"nodes"`
	Seed          int64              `json:"seed"`
	BenchJobs     int                `json:"bench_jobs"`
	WallMS        float64            `json:"wall_ms"`
	JobsPerSec    float64            `json:"jobs_per_sec"`
	RecWallMS     float64            `json:"recorder_wall_ms"`
	RecJobsPerSec float64            `json:"recorder_jobs_per_sec"`
	RecEvents     int                `json:"recorder_events"`
	MixJobs       int                `json:"mix_jobs"`
	MakespanMS    map[string]float64 `json:"makespan_ms"`
	AvgWaitMS     map[string]float64 `json:"avg_wait_ms"`
	Utilization   map[string]float64 `json:"utilization"`
	DrainWaitMS   map[string]float64 `json:"drain_wait_ms"`
	RestoreWaitMS map[string]float64 `json:"restore_wait_ms"`
	CkptOverhead  map[string]float64 `json:"ckpt_overhead_ms"`
	HostCkptOver  map[string]float64 `json:"ckpt_overhead_suspend_to_host_ms"`
	ServeP50MS    float64            `json:"serve_submit_p50_ms"`
	ServeP99MS    float64            `json:"serve_submit_p99_ms"`
	ServeJobsSec  float64            `json:"serve_jobs_per_sec"`
	// The schema-6 failure-storm row: a pinned seeded storm replay with
	// proactive checkpointing (virtual-time quality metrics, not wall
	// clock — deterministic for a given seed).
	GoodputJobsSec float64 `json:"goodput_jobs_per_sec"`
	LostWorkMS     float64 `json:"lost_work_ms"`
	Availability   float64 `json:"availability"`
	// Scale* record the -bench-scale drain (schema 5); all zero when the
	// snapshot was written without it.
	ScaleNodes         int     `json:"scale_nodes"`
	ScaleJobs          int     `json:"scale_jobs"`
	ScaleBackfillDepth int     `json:"scale_backfill_depth"`
	ScaleWallMS        float64 `json:"scale_wall_ms"`
	ScaleJobsPerSec    float64 `json:"scale_jobs_per_sec"`
}

// writeBenchJSON measures scheduling throughput (jobs/s through a
// 1000-job EASY queue, wall clock, with and without a recorder
// attached), the default-mix schedule quality under each policy, and
// the contended checkpoint cost model (preempt + 300s quantum, default
// perfmodel prices), then writes the snapshot for the CI artifact. With
// scale set it also drains the pinned datacenter-scale queue — the same
// configuration BenchmarkBatchThroughputScale pins — and records its
// jobs/s for the bench-scale regression gate.
func writeBenchJSON(stdout io.Writer, path string, nodes int, seed int64, scale bool) error {
	run := func(pol batch.Policy, count int, preempt bool, quantum time.Duration, suspend bool, rec batch.Recorder) (batch.Report, time.Duration, error) {
		s := batch.New(batch.Config{
			Cluster:       batch.NewCluster(nodes, netsim.GigabitSwitch(nodes)),
			Policy:        pol,
			TrunkSlowdown: 1.1,
			Preempt:       preempt,
			Quantum:       quantum,
			SuspendToHost: suspend,
			Recorder:      rec,
		})
		// The throughput/makespan rows replay the classic all-at-once
		// mix; the contended checkpoint rows need staggered arrivals,
		// or only fair-share's reordering ever drives a suspension.
		jobs := batch.SyntheticMix(seed, count, nodes)
		if preempt || quantum > 0 {
			jobs = batch.SyntheticStream(seed, count, nodes, 5*time.Second)
		}
		for _, j := range jobs {
			if err := s.Submit(j); err != nil {
				return batch.Report{}, 0, err
			}
		}
		t0 := time.Now()
		rep := s.Run()
		return rep, time.Since(t0), nil
	}
	const benchJobs = 1000
	_, wall, err := run(batch.Backfill, benchJobs, false, 0, false, nil)
	if err != nil {
		return err
	}
	recSink := &batch.MemRecorder{}
	recRep, recWall, err := run(batch.Backfill, benchJobs, false, 0, false, recSink)
	if err != nil {
		return err
	}
	snap := benchSnapshot{
		Schema:        6,
		Nodes:         nodes,
		Seed:          seed,
		BenchJobs:     benchJobs,
		WallMS:        float64(wall.Microseconds()) / 1e3,
		JobsPerSec:    benchJobs / wall.Seconds(),
		RecWallMS:     float64(recWall.Microseconds()) / 1e3,
		RecJobsPerSec: benchJobs / recWall.Seconds(),
		RecEvents:     len(recRep.Events),
		MixJobs:       200,
		MakespanMS:    map[string]float64{},
		AvgWaitMS:     map[string]float64{},
		Utilization:   map[string]float64{},
		DrainWaitMS:   map[string]float64{},
		RestoreWaitMS: map[string]float64{},
		CkptOverhead:  map[string]float64{},
		HostCkptOver:  map[string]float64{},
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	for _, pol := range batch.Policies() {
		rep, _, err := run(pol, snap.MixJobs, false, 0, false, nil)
		if err != nil {
			return err
		}
		snap.MakespanMS[pol.String()] = ms(rep.Makespan)
		snap.AvgWaitMS[pol.String()] = ms(rep.AvgWait)
		snap.Utilization[pol.String()] = rep.Utilization
		// The contended run drives both store-link directions; the
		// suspend-to-host rerun records what the RAM tier saves.
		ckpt, _, err := run(pol, snap.MixJobs, true, 300*time.Second, false, nil)
		if err != nil {
			return err
		}
		snap.DrainWaitMS[pol.String()] = ms(ckpt.DrainWait)
		snap.RestoreWaitMS[pol.String()] = ms(ckpt.RestoreWait)
		snap.CkptOverhead[pol.String()] = ms(ckpt.CheckpointOverhead + ckpt.DemotionTime)
		host, _, err := run(pol, snap.MixJobs, true, 300*time.Second, true, nil)
		if err != nil {
			return err
		}
		snap.HostCkptOver[pol.String()] = ms(host.CheckpointOverhead + host.DemotionTime)
	}
	serve, err := benchServe(nodes, seed)
	if err != nil {
		return err
	}
	snap.ServeP50MS = ms(serve.P50)
	snap.ServeP99MS = ms(serve.P99)
	snap.ServeJobsSec = serve.JobsPerSec
	// The schema-6 storm row: the contended stream mix through a pinned
	// seeded storm with proactive checkpointing. These are virtual-time
	// schedule-quality metrics, fully deterministic for the seed — any
	// drift is a recovery behavior change, not measurement noise. The
	// interval sits well under the quantum so proactive banks actually
	// arm before the slice boundary.
	storm := batch.New(batch.Config{
		Cluster:            batch.NewCluster(nodes, netsim.GigabitSwitch(nodes)),
		Policy:             batch.Backfill,
		Preempt:            true,
		Quantum:            300 * time.Second,
		Faults:             batch.GenFaultPlan(seed, nodes, 24*time.Hour, 10*time.Minute),
		CheckpointInterval: time.Minute,
	})
	for _, j := range batch.SyntheticStream(seed, snap.MixJobs, nodes, 5*time.Second) {
		if err := storm.Submit(j); err != nil {
			return err
		}
	}
	stormRep := storm.Run()
	snap.GoodputJobsSec = stormRep.Goodput
	snap.LostWorkMS = ms(stormRep.LostWork)
	snap.Availability = stormRep.Availability
	if scale {
		wall, err := runScaleBench(&snap)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "clusterctl: scale drain: %d jobs on %d nodes in %v (%.0f jobs/s)\n",
			snap.ScaleJobs, snap.ScaleNodes, wall.Round(time.Second), snap.ScaleJobsPerSec)
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "clusterctl: wrote %s (%.0f jobs/s scheduling throughput, %.0f with recorder, easy makespan %.0f ms, serve p99 %.1f ms)\n",
		path, snap.JobsPerSec, snap.RecJobsPerSec, snap.MakespanMS["easy"], snap.ServeP99MS)
	return nil
}

// runScaleBench drains the pinned datacenter-scale queue — 1M jobs on
// 10k nodes under EASY backfill with the scan depth capped at 512, the
// exact configuration BenchmarkBatchThroughputScale pins — and fills
// the snapshot's Scale* fields. The depth cap bounds per-pass scan work
// (an unbounded backfill scan over a million-job queue is quadratic);
// it prunes effort only, never reorders the examined prefix
// (TestBackfillDepth). RunUntil is used instead of Run so the wall
// clock measures scheduling, not the copy of a million-entry report.
func runScaleBench(snap *benchSnapshot) (time.Duration, error) {
	const scaleNodes, scaleJobs, scaleDepth = 10_000, 1_000_000, 512
	s := batch.New(batch.Config{
		Cluster:       batch.NewCluster(scaleNodes, netsim.GigabitSwitch(scaleNodes)),
		Policy:        batch.Backfill,
		BackfillDepth: scaleDepth,
	})
	mix := batch.SyntheticMix(1, scaleJobs, scaleNodes)
	t0 := time.Now()
	for _, j := range mix {
		if err := s.Submit(j); err != nil {
			return 0, fmt.Errorf("scale bench submit: %w", err)
		}
	}
	s.RunUntil(batch.Forever)
	wall := time.Since(t0)
	for _, j := range mix {
		if j.State != batch.Done {
			return 0, fmt.Errorf("scale bench: %s ended %v, want done", j, j.State)
		}
	}
	snap.ScaleNodes = scaleNodes
	snap.ScaleJobs = scaleJobs
	snap.ScaleBackfillDepth = scaleDepth
	snap.ScaleWallMS = float64(wall.Microseconds()) / 1e3
	snap.ScaleJobsPerSec = scaleJobs / wall.Seconds()
	return wall, nil
}

// find returns the report for one (placement, policy) run.
func find(results []result, plc batch.Placement, pol batch.Policy) batch.Report {
	for _, r := range results {
		if r.placement == plc && r.policy == pol {
			return r.rep
		}
	}
	panic("clusterctl: missing run")
}

// gain renders the relative makespan improvement from base to improved,
// or "n/a" when the base is empty (e.g. -jobs 0).
func gain(base, improved time.Duration) string {
	if base <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(float64(improved)/float64(base)-1))
}

// ckptWaitCol renders a run's store-link queue waits as drain+restore,
// or "n/a" for a run with no checkpoint traffic at all (no preemptions,
// slices, or demotions means zero restores — a blank column would read
// as a perfectly contention-free protocol rather than an unused one).
func ckptWaitCol(r batch.Report) string {
	if r.PreemptEvents == 0 && r.SliceEvents == 0 && r.Demotions == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%v+%v", batch.RoundDuration(r.DrainWait), batch.RoundDuration(r.RestoreWait))
}

// resolveFaultFlags cross-checks the failure-injection knobs and builds
// the plan: -faults replays a trace file, -mtbf generates a seeded
// storm over a 24h horizon (the two are exclusive — a study is either
// pinned to a recorded storm or to the generator), and -ckpt-interval
// is meaningless without failures to survive (the scheduler would
// ignore it anyway: a fault-free run is bit-identical with the knob on
// or off).
func resolveFaultFlags(faultsPath string, mtbf, ckptInterval time.Duration, nodes int, seed int64) (*batch.FaultPlan, error) {
	if faultsPath != "" && mtbf != 0 {
		return nil, fmt.Errorf("-faults and -mtbf are mutually exclusive: replay a recorded storm or generate one, not both")
	}
	if mtbf < 0 {
		return nil, fmt.Errorf("-mtbf %v: mean time between failures must be positive", mtbf)
	}
	if ckptInterval < 0 {
		return nil, fmt.Errorf("-ckpt-interval %v: the interval must be positive", ckptInterval)
	}
	if ckptInterval > 0 && faultsPath == "" && mtbf == 0 {
		return nil, fmt.Errorf("-ckpt-interval needs failures to survive: add -faults or -mtbf")
	}
	switch {
	case faultsPath != "":
		plan, err := batch.LoadFaultPlan(faultsPath)
		if err != nil {
			return nil, err
		}
		return plan, nil
	case mtbf > 0:
		return batch.GenFaultPlan(seed, nodes, 24*time.Hour, mtbf), nil
	}
	return nil, nil
}

// validateCheckpointFlags cross-checks the checkpoint-model knobs:
// -suspend-to-host is meaningless without a suspension mechanism
// (-preempt or -quantum), the duplex mode must parse, and a negative
// store bandwidth is rejected (0 means "use the paper's Gigabit
// model").
func validateCheckpointFlags(suspendToHost, preempt bool, quantum time.Duration, duplex string, storeBW float64) (batch.Duplex, error) {
	d, err := batch.ParseDuplex(duplex)
	if err != nil {
		return 0, fmt.Errorf("-store-duplex %q: %v", duplex, err)
	}
	if suspendToHost && !preempt && quantum <= 0 {
		return 0, fmt.Errorf("-suspend-to-host needs a suspension mechanism: enable -preempt and/or -quantum")
	}
	if storeBW < 0 {
		return 0, fmt.Errorf("-store-bandwidth %g: bandwidth must be non-negative MB/s (0 selects the paper's Gigabit model)", storeBW)
	}
	return d, nil
}

// shrink scales a batch down to sizes the functional simulators can
// actually run in seconds.
func shrink(jobs []*batch.Job, clusterNodes int) {
	maxGang := 6
	if clusterNodes < maxGang {
		maxGang = clusterNodes
	}
	for _, j := range jobs {
		if j.Nodes > maxGang {
			j.Nodes = maxGang
		}
		switch j.Kind {
		case batch.KindLBM:
			j.Problem = [3]int{8, 8, 8}
			j.Steps = 4
		case batch.KindCG:
			j.Problem = [3]int{12, 12, 1}
			j.Steps = 1000
		case batch.KindPDE:
			j.Problem = [3]int{12, 12, 3}
			j.Steps = 6
		}
		j.Est = 0 // re-estimate for the shrunk problem
	}
}

func printJobs(w io.Writer, rep batch.Report) {
	fmt.Fprintf(w, "  %-4s %-10s %-6s %-5s %-6s %-5s %-9s %-9s %-9s %s\n",
		"id", "name", "user", "kind", "nodes", "prio", "wait", "runtime", "state", "detail")
	for _, j := range rep.Jobs {
		mark := ""
		if j.Backfilled() {
			mark = " *bf"
		}
		if j.Preemptions() > 0 {
			mark += fmt.Sprintf(" *pre%d", j.Preemptions())
		}
		if j.TimeSlices() > 0 {
			mark += fmt.Sprintf(" *ts%d", j.TimeSlices())
		}
		if !j.Alloc.Contiguous() {
			mark += " *split"
		}
		fmt.Fprintf(w, "  %-4d %-10s %-6s %-5s %-6d %-5d %-9v %-9v %-9s %s%s\n",
			j.ID, j.Name, j.User, j.Kind, j.Nodes, j.Priority,
			batch.RoundDuration(j.Wait()), batch.RoundDuration(j.Runtime()),
			j.State, j.Detail, mark)
	}
}
