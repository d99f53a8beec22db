package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"time"

	"gpucluster/internal/batch"
	"gpucluster/internal/netsim"
)

// batchWorkload is one offline scheduler workload: an ensemble of job
// streams, each drained on its own freshly built scheduler. Every input
// derives from the run seed; the streams of one iteration are all
// different, and every iteration replays the same ensemble.
type batchWorkload struct {
	nodes   int
	streams int
	// setupReps is how many times each stream's scheduler is built; the
	// set-up figure is the median over every build of the run.
	setupReps int
	// jobs generates stream k's submissions. The scheduler mutates
	// them, so every iteration generates a fresh set.
	jobs func(seed int64) []*batch.Job
	// config returns the scheduler configuration on cluster c.
	config func(c *batch.Cluster) batch.Config
	// faults generates stream k's failure plan; nil means none.
	faults func(seed int64) *batch.FaultPlan
}

// subSeed is the seed of a run's k-th input set: the run seed itself
// for the first, a well-mixed 31-bit value for the others (math/rand
// folds seeds modulo 2^31-1, so nearby sums would collide across runs).
func subSeed(seed int64, k int) int64 {
	if k == 0 {
		return seed
	}
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return int64(x & (1<<31 - 1))
}

// drain is a 1/10-scale model of the 1M-job/10k-node pin: everything
// submitted at once, EASY backfill with a bounded depth, no recorder
// and no checkpointing.
func runDrain(cfg runConfig) (outcome, error) {
	const jobs, nodes = 100_000, 1_000
	return runBatch(cfg, batchWorkload{
		nodes:     nodes,
		streams:   1,
		setupReps: 20,
		jobs:      func(seed int64) []*batch.Job { return batch.SyntheticMix(seed, jobs, nodes) },
		config: func(c *batch.Cluster) batch.Config {
			return batch.Config{Cluster: c, Policy: batch.Backfill, BackfillDepth: 512}
		},
	})
}

// storm drives the pass layer through kills, restores and reservation
// replans: staggered arrivals under conservative backfill, priority
// preemption, a 300 s quantum, suspend-to-host, a seeded failure storm
// and proactive checkpointing. Job step counts are scaled so that jobs
// outlast the quantum and get sliced. Host images are never demoted at
// this load: demotion needs a queue blocked on host memory, and under
// that pressure some seeds fall into preemption cycles that make one
// stream cost many times another.
//
// Replanning cost grows superlinearly with queue depth, so one stream's
// cost swings with its seed; the rate and memory figures are medians
// over an ensemble of many lightly loaded streams, which keeps them
// steady from seed to seed. That median does not see the few streams
// whose queue ran deep; the pooled pass latencies and the ensemble rate
// do, and the ensemble rate is printed for that reason, though it
// spreads too far from seed to seed to gate.
func runStorm(cfg runConfig) (outcome, error) {
	const (
		streams    = 144
		jobs       = 1000
		nodes      = 48
		meanGap    = 120 * time.Second
		stepsScale = 10
	)
	o, err := runBatch(cfg, batchWorkload{
		nodes:     nodes,
		streams:   streams,
		setupReps: 3,
		jobs: func(seed int64) []*batch.Job {
			js := batch.SyntheticStream(seed, jobs, nodes, meanGap)
			for _, j := range js {
				j.Steps *= stepsScale
			}
			return js
		},
		config: func(c *batch.Cluster) batch.Config {
			return batch.Config{
				Cluster:            c,
				Policy:             batch.Conservative,
				Preempt:            true,
				Quantum:            300 * time.Second,
				SuspendToHost:      true,
				CheckpointInterval: 4 * time.Minute,
			}
		},
		faults: func(seed int64) *batch.FaultPlan {
			return batch.GenFaultPlan(seed, nodes, 48*time.Hour, 3*time.Hour)
		},
	})
	o.Notes = append(o.Notes, "known defect preemption-cycles, not reached by this configuration: "+
		"with 150 MB of host memory per node, a mean gap of 90 s and 3,000 jobs per stream (48 nodes, "+
		"job steps x10, 3 h MTBF, 4 min checkpoint interval), some seeds preempt without end, up to "+
		"278,000 preemptions in one stream; preemptions_per_job_max shows it if it appears here")
	return o, err
}

// batchIter is what one iteration over the ensemble measured.
type batchIter struct {
	traced bool
	// Per stream: jobs completed per wall second, and the live heap
	// its drained schedule and report hold beyond its inputs, MB.
	rate, mem []float64
	total     float64   // jobs per wall second over the ensemble
	passes    []float64 // every pass of every stream, ms
	sched     schedule
	cands     float64 // placement candidates (traced iterations)
	layers    map[string]*layerStat
	uncov     float64
	spans     int
}

func runBatch(cfg runConfig, w batchWorkload) (outcome, error) {
	o := newOutcome()
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	var (
		setups []float64
		iters  []batchIter
		digest uint64
	)
	err := loop(cfg.Budget, 2, func(i int) error {
		// A traced run alternates untraced and traced iterations, so
		// the tracing overhead is measured on the same inputs.
		traced := cfg.Trace && i%2 == 1
		if traced {
			tr.nextRun()
		}
		it := batchIter{traced: traced, sched: newSchedule()}
		var (
			wall  time.Duration
			done  int
			spans [][2]int64
			h     = fnv.New64a()
		)
		for k := 0; k < w.streams; k++ {
			// Each stream's inputs are generated just before it runs,
			// then the heap is collected (inside liveHeapMB), so the
			// garbage of generating them is not collected inside a timed
			// section.
			stream := w.jobs(subSeed(cfg.Seed, k))
			var plan *batch.FaultPlan
			if w.faults != nil {
				plan = w.faults(subSeed(cfg.Seed, k))
			}
			inputs := liveHeapMB()
			var (
				s   *batch.Scheduler
				reg *batch.Registry
				cur int32 = -1 // the open span an Estimate call nests in
			)
			for r := 0; r < w.setupReps; r++ {
				t0 := time.Now()
				bc := w.config(batch.NewCluster(w.nodes, netsim.GigabitSwitch(w.nodes)))
				bc.Faults = plan
				if traced {
					est := batch.NewPerfEstimator()
					bc.Estimate = func(j *batch.Job) time.Duration {
						id := tr.begin("batch.estimate", cur)
						d := est.Estimate(j)
						tr.end(id)
						return d
					}
					reg = batch.NewRegistry()
					bc.Metrics = reg
				}
				s = batch.New(bc)
				setups = append(setups, time.Since(t0).Seconds())
			}
			var from int64
			if traced {
				from = tr.now()
			}
			passes := make([]float64, 0, 2*len(stream))
			t0 := time.Now()
			for _, j := range stream {
				var err error
				if traced {
					cur = tr.begin("batch.submit", -1)
					err = s.Submit(j)
					tr.end(cur)
				} else {
					err = s.Submit(j)
				}
				if err != nil {
					return fmt.Errorf("submit %s: %w", j.Name, err)
				}
			}
			for more := true; more; {
				p0 := time.Now()
				if traced {
					cur = tr.begin("batch.pass", -1)
					more = s.Step()
					tr.end(cur)
				} else {
					more = s.Step()
				}
				passes = append(passes, float64(time.Since(p0))/1e6)
			}
			var rep batch.Report
			if traced {
				cur = tr.begin("batch.report", -1)
				rep = s.Run()
				tr.end(cur)
				spans = append(spans, [2]int64{from, tr.now()})
				it.cands += registryValue(reg, "batch_placement_candidates_total")
			} else {
				rep = s.Run()
			}
			d := time.Since(t0)
			wall += d
			done += len(stream)
			it.rate = append(it.rate, float64(len(stream))/d.Seconds())

			attempted, failed := checkBatch(rep, len(stream), h)
			o.Attempted += attempted
			o.Failed += failed
			it.sched.add(rep)
			it.mem = append(it.mem, liveHeapMB()-inputs)
			runtime.KeepAlive(s)
			it.passes = append(it.passes, passes...)
		}
		it.total = float64(done) / wall.Seconds()
		if traced {
			it.layers, it.uncov = tr.runStats(tr.run, spans)
			for _, st := range it.layers {
				it.spans += st.Calls
			}
		}
		o.Attempted++
		if d := h.Sum64(); i == 0 {
			digest = d
		} else if d != digest {
			o.Failed++
			o.Notes = append(o.Notes, fmt.Sprintf("check failed: iteration %d schedule digest %x differs from %x", i, d, digest))
		}
		iters = append(iters, it)
		return nil
	})
	if err != nil {
		return o, err
	}

	var plain, traced []batchIter
	for _, it := range iters {
		if it.traced {
			traced = append(traced, it)
		} else {
			plain = append(plain, it)
		}
	}
	rate := streamMedian(plain, func(it batchIter) []float64 { return it.rate })
	o.Metrics["setup_s"] = median(setups)
	o.Metrics["work_per_s"] = rate
	// Pass latencies pool every stream's passes, so a stream whose
	// queue ran deep weighs in with each of its passes.
	var p50, p90, totals []float64
	for _, it := range plain {
		p50 = append(p50, quantile(it.passes, 0.5))
		p90 = append(p90, quantile(it.passes, 0.90))
		totals = append(totals, it.total)
	}
	o.Metrics["latency_p50_ms"] = median(p50)
	o.Metrics["latency_p90_ms"] = median(p90)
	o.Metrics["mem_peak_mb"] = streamMedian(plain, func(it batchIter) []float64 { return it.mem })
	o.fig("jobs_per_s", "jobs/s", "higher", rate)
	o.fig("ensemble_jobs_per_s", "jobs/s", "higher", median(totals))
	o.fig("streams", "count", "", float64(w.streams))
	o.fig("iterations", "count", "", float64(len(plain)))
	addSchedule(&o, iters[0].sched)
	if cfg.Trace {
		batchLayers(&o, traced, rate, streamMedian(traced, func(it batchIter) []float64 { return it.rate }))
		path, err := tr.write(cfg.OutDir, cfg.Workload, cfg.Seed)
		if err != nil {
			return o, err
		}
		o.Notes = append(o.Notes, "spans written to "+path)
	}
	return o, nil
}

// streamMedian takes each stream's median over the iterations, then
// the median over the streams: the first damps run-to-run noise, the
// second keeps one stream whose queue happened to run deep from
// swinging the run's figure.
func streamMedian(iters []batchIter, of func(batchIter) []float64) float64 {
	if len(iters) == 0 {
		return 0
	}
	per := make([]float64, len(of(iters[0])))
	for k := range per {
		var xs []float64
		for _, it := range iters {
			xs = append(xs, of(it)[k])
		}
		per[k] = median(xs)
	}
	return median(per)
}

// checkBatch checks a drained schedule: every job ended Done and its
// node-holding time balances exactly against its work, its checkpoint
// overhead and the work faults destroyed (the storm property tests'
// invariant), and the per-job counters sum to the report's. It returns
// the jobs checked and the failures, and adds (ID, Start, End,
// Alloc) into h.
func checkBatch(rep batch.Report, want int, h hash.Hash64) (attempted, failed int) {
	attempted = want
	if len(rep.Jobs) != want {
		failed += abs(want - len(rep.Jobs))
	}
	var lost time.Duration
	kills, banks := 0, 0
	for _, j := range rep.Jobs {
		diff := j.BusyTime() - j.Estimate() - j.CheckpointOverhead() - j.LostWork()
		slack := 5*time.Millisecond + time.Duration(j.Faults()+j.Banks())*time.Millisecond
		if j.State != batch.Done || diff > slack || diff < -slack {
			failed++
		}
		lost += j.LostWork()
		kills += j.Faults()
		banks += j.Banks()
		fmt.Fprintf(h, "%d %d %d", j.ID, j.Start, j.End)
		for _, r := range j.Alloc.Ranges {
			fmt.Fprintf(h, " %d+%d", r.First, r.Count)
		}
		h.Write([]byte{'\n'})
	}
	if lost != rep.LostWork || kills != rep.FaultKills || banks != rep.Banks {
		failed++
	}
	return attempted, failed
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// schedule is the deterministic outcome of an iteration's schedules:
// the quality a user of the batch system sees and the exact event
// counts, which any change that only alters speed must leave identical.
type schedule struct {
	streams, jobs                            int
	makespanH, waitH, utilization, lostWorkH float64 // summed over streams
	counts                                   map[string]float64
	// maxPreempt is the largest preemptions per job of one stream.
	maxPreempt float64
	// defect describes the first stream whose Report.AvgWait disagrees
	// with the float64 mean of its jobs' waits.
	defect string
}

func newSchedule() schedule { return schedule{counts: map[string]float64{}} }

func (sc *schedule) add(rep batch.Report) {
	// The mean wait is summed in float64: Report.AvgWait sums int64
	// nanoseconds and wraps on large schedules.
	var wait float64
	for _, j := range rep.Jobs {
		wait += j.Wait().Hours()
	}
	sc.streams++
	sc.jobs += len(rep.Jobs)
	sc.makespanH += rep.Makespan.Hours()
	sc.waitH += wait
	sc.utilization += rep.Utilization
	sc.lostWorkH += rep.LostWork.Hours()
	for k, v := range map[string]float64{
		"batch.backfills":      float64(rep.Backfilled),
		"batch.preemptions":    float64(rep.PreemptEvents),
		"batch.slices":         float64(rep.SliceEvents),
		"batch.host_suspends":  float64(rep.HostSuspends),
		"batch.demotions":      float64(rep.Demotions),
		"batch.fault_kills":    float64(rep.FaultKills),
		"batch.banks":          float64(rep.Banks),
		"batch.drain_wait_h":   rep.DrainWait.Hours(),
		"batch.restore_wait_h": rep.RestoreWait.Hours(),
	} {
		sc.counts[k] += v
	}
	n := len(rep.Jobs)
	if n > 0 {
		sc.maxPreempt = max(sc.maxPreempt, float64(rep.PreemptEvents)/float64(n))
	}
	if n > 0 && sc.defect == "" {
		mean, got := wait/float64(n), rep.AvgWait.Hours()
		if d := got - mean; d > 1.0/3600 || d < -1.0/3600 {
			sc.defect = fmt.Sprintf("known defect report-avgwait-overflow: Report.AvgWait reads %.4f h, "+
				"the float64 mean of Job.Wait() is %.4f h (report.go sums waits in int64 nanoseconds, which wraps)", got, mean)
		}
	}
}

// preemptCycleLimit is the preemptions per job of one stream above
// which a run reports a preemption cycle.
const preemptCycleLimit = 10

// addSchedule records an iteration's schedule figures, means over its
// streams (counts are summed), and Report.AvgWait's overflow as a known
// defect when it shows.
func addSchedule(o *outcome, sc schedule) {
	n := float64(sc.streams)
	makespan, wait, util, lost := sc.makespanH/n, sc.waitH/float64(sc.jobs), sc.utilization/n, sc.lostWorkH/n
	o.fig("makespan_h", "h", "lower", makespan)
	o.fig("mean_wait_h", "h", "lower", wait)
	o.fig("utilization", "ratio", "higher", util)
	o.fig("lost_work_h", "h", "lower", lost)
	o.Metrics["batch.makespan_h"] = makespan
	o.Metrics["batch.mean_wait_h"] = wait
	o.Metrics["batch.utilization"] = util
	o.Metrics["batch.lost_work_h"] = lost
	for k, v := range sc.counts {
		o.Metrics[k] = v
	}
	o.fig("preemptions_per_job", "count", "lower", sc.counts["batch.preemptions"]/float64(sc.jobs))
	o.fig("preemptions_per_job_max", "count", "lower", sc.maxPreempt)
	if sc.maxPreempt > preemptCycleLimit {
		o.Notes = append(o.Notes, fmt.Sprintf("preemption cycle: one stream made %.0f preemptions per job", sc.maxPreempt))
	}
	if sc.defect != "" {
		o.Notes = append(o.Notes, sc.defect)
	}
}

// batchLayers records the per-layer figures of the traced iterations,
// each the median over them, and the tracing overhead: the drop of the
// traced work_per_s against the untraced one of the same run.
func batchLayers(o *outcome, iters []batchIter, rate, tracedRate float64) {
	var (
		estBusy, subSelf, passBusy, passP99, repBusy, uncov, cands []float64
		last                                                       batchIter
	)
	for _, it := range iters {
		last = it
		get := func(name string) *layerStat {
			if st := it.layers[name]; st != nil {
				return st
			}
			return &layerStat{}
		}
		estBusy = append(estBusy, get("batch.estimate").Busy.Seconds())
		subSelf = append(subSelf, get("batch.submit").Self.Seconds())
		passBusy = append(passBusy, get("batch.pass").Busy.Seconds())
		passP99 = append(passP99, durQuantile(get("batch.pass").Durs, 0.99)*1e6)
		repBusy = append(repBusy, get("batch.report").Busy.Seconds())
		uncov = append(uncov, it.uncov)
		cands = append(cands, it.cands)
	}
	count := func(name string) float64 {
		if st := last.layers[name]; st != nil {
			return float64(st.Calls)
		}
		return 0
	}
	m := o.Metrics
	m["batch.estimate.calls"] = count("batch.estimate")
	m["batch.estimate.busy_s"] = median(estBusy)
	m["batch.submit.calls"] = count("batch.submit")
	m["batch.submit.self_s"] = median(subSelf)
	m["batch.pass.calls"] = count("batch.pass")
	m["batch.pass.busy_s"] = median(passBusy)
	m["batch.pass.p99_us"] = median(passP99)
	m["batch.report.busy_s"] = median(repBusy)
	m["batch.placement.candidates"] = median(cands)
	m["trace.overhead_share"] = 1 - tracedRate/rate
	m["trace.uncovered_share"] = median(uncov)
	m["trace.spans"] = float64(last.spans)
}

// registryValue reads one unlabelled counter or gauge from a registry.
func registryValue(reg *batch.Registry, name string) float64 {
	if reg == nil {
		return 0
	}
	for _, p := range reg.Snapshot() {
		if p.Name == name {
			return p.Value
		}
	}
	return 0
}
