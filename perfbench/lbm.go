package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"gpucluster/internal/cluster"
	"gpucluster/internal/gpu"
	"gpucluster/internal/lbm"
	"gpucluster/internal/lbmgpu"
	"gpucluster/internal/perfmodel"
	"gpucluster/internal/sched"
	"gpucluster/internal/vecmath"
)

// The lbm workload is the paper reproduction: channel flow (inlet,
// outflow, walls) on a 2-rank cluster.Sim whose ranks compute on
// simulated GPUs, one fragment worker per device, split along x into
// 24^3 sub-domains. The same global problem also runs on one CPU rank,
// the plain single-thread baseline and the bit-for-bit reference.
const (
	lbmSub   = 24
	lbmRanks = 2
	lbmSteps = 80
	// lbmSetupReps is how many clusters each iteration builds; the
	// set-up figure is the median over every build of the run.
	lbmSetupReps = 5
)

var lbmGrid = sched.NodeGrid{PX: lbmRanks, PY: 1, PZ: 1}

// lbmConfig is the seeded problem: the seed picks the inlet speed and a
// small density perturbation of the initial state.
func lbmConfig(seed int64) cluster.Config {
	rng := rand.New(rand.NewSource(seed))
	u := float32(0.02 + 0.03*rng.Float64())
	phase := float32(rng.Float64())
	cfg := cluster.Config{
		Global: [3]int{lbmRanks * lbmSub, lbmSub, lbmSub},
		Tau:    0.8,
		InitState: func(x, y, z int) (float32, vecmath.Vec3) {
			h := uint32(x*73856093^y*19349663^z*83492791) % 1000
			return 1 + 0.002*(float32(h)/1000-phase), vecmath.Vec3{u, 0, 0}
		},
	}
	cfg.Faces[lbm.FaceXNeg] = lbm.FaceSpec{Type: lbm.Inlet, U: vecmath.Vec3{u, 0, 0}}
	cfg.Faces[lbm.FaceXPos] = lbm.FaceSpec{Type: lbm.Outflow}
	for _, f := range []int{lbm.FaceYNeg, lbm.FaceYPos, lbm.FaceZNeg, lbm.FaceZPos} {
		cfg.Faces[f] = lbm.FaceSpec{Type: lbm.Wall}
	}
	return cfg
}

// lbmIter is what one iteration measured.
type lbmIter struct {
	traced    bool
	rate      float64   // GPU cluster cell updates per wall second
	stepMS    []float64 // wall time of each GPU cluster step
	cpuRate   float64   // CPU reference cell updates per wall second
	mem       float64   // live heap with both simulations built, MB
	layers    map[string]float64
	fractions [3]float64 // measured compute, pack+unpack, wait shares of a step
	uncovered float64
}

func runLBM(cfg runConfig) (outcome, error) {
	o := newOutcome()
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	problem := lbmConfig(cfg.Seed)
	cells := float64(problem.Global[0] * problem.Global[1] * problem.Global[2])
	var (
		setups []float64
		iters  []lbmIter
	)
	err := loop(cfg.Budget, 2, func(i int) error {
		traced := cfg.Trace && i%2 == 1
		if traced {
			tr.nextRun()
		}
		it := lbmIter{traced: traced}

		// Set-up: cluster.New builds every rank and uploads its block
		// to the device.
		var (
			sim  *cluster.Sim
			sims []*lbmgpu.Simulator
		)
		for r := 0; r < lbmSetupReps; r++ {
			sims = make([]*lbmgpu.Simulator, lbmRanks)
			c := problem
			c.Grid = lbmGrid
			c.NewNode = func(rank int, sub *lbm.Lattice) (cluster.Node, error) {
				s, err := lbmgpu.New(gpu.New(gpu.Config{Name: fmt.Sprintf("gpu%d", rank), TextureMemory: 256 << 20, Workers: 1}), sub)
				if err != nil {
					return nil, err
				}
				sims[rank] = s
				if traced {
					return &tracedGPUNode{Node: s, tr: tr}, nil
				}
				return s, nil
			}
			t0 := time.Now()
			var err error
			if sim, err = cluster.New(c); err != nil {
				return err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		before := deviceCounts(sims)

		var measured [][2]int64
		if traced {
			measured = append(measured, [2]int64{tr.now(), 0})
		}
		t0 := time.Now()
		for s := 0; s < lbmSteps; s++ {
			s0 := time.Now()
			sim.Run(1)
			it.stepMS = append(it.stepMS, float64(time.Since(s0))/1e6)
		}
		it.rate = cells * lbmSteps / time.Since(t0).Seconds()
		if traced {
			measured[0][1] = tr.now()
		}
		after := deviceCounts(sims)

		// The CPU reference: the same problem on one rank.
		ref := problem
		ref.Grid = sched.NodeGrid{PX: 1, PY: 1, PZ: 1}
		if traced {
			ref.NewNode = func(_ int, sub *lbm.Lattice) (cluster.Node, error) {
				return &phasedCPUNode{CPUNode: cluster.CPUNode{L: sub}, tr: tr}, nil
			}
		}
		cpu, err := cluster.New(ref)
		if err != nil {
			return err
		}
		t1 := time.Now()
		cpu.Run(lbmSteps)
		it.cpuRate = cells * lbmSteps / time.Since(t1).Seconds()

		o.Attempted += lbmSteps + 1
		if n := diffCells(sim, cpu); n > 0 {
			o.Failed++
			o.Notes = append(o.Notes, fmt.Sprintf("check failed: iteration %d: %d cells differ from the CPU reference", i, n))
		}
		if traced {
			it.layers, it.fractions, it.uncovered = lbmLayers(tr, sim, before, after, measured)
		}
		it.mem = liveHeapMB()
		runtime.KeepAlive(sim)
		runtime.KeepAlive(cpu)
		iters = append(iters, it)
		return nil
	})
	if err != nil {
		return o, err
	}

	// Step times pool every untraced iteration, so the p90 rests on tens
	// of steps beyond it.
	var rates, steps, cpuRates, tRates, mem []float64
	for _, it := range iters {
		if it.traced {
			tRates = append(tRates, it.rate)
			continue
		}
		rates = append(rates, it.rate)
		steps = append(steps, it.stepMS...)
		cpuRates = append(cpuRates, it.cpuRate)
		mem = append(mem, it.mem)
	}
	o.Metrics["setup_s"] = median(setups)
	o.Metrics["work_per_s"] = median(rates)
	o.Metrics["latency_p50_ms"] = quantile(steps, 0.5)
	o.Metrics["latency_p90_ms"] = quantile(steps, 0.90)
	o.Metrics["mem_peak_mb"] = median(mem)
	o.fig("mcells_per_s", "Mcells/s", "higher", median(rates)/1e6)
	o.fig("cpu_mcells_per_s", "Mcells/s", "higher", median(cpuRates)/1e6)
	o.fig("steps_per_iteration", "count", "", lbmSteps)
	o.fig("iterations", "count", "", float64(len(rates)))
	if cfg.Trace {
		keys := map[string][]float64{}
		var fr [3][]float64
		var uncov []float64
		for _, it := range iters {
			if !it.traced {
				continue
			}
			for k, v := range it.layers {
				keys[k] = append(keys[k], v)
			}
			for k := range fr {
				fr[k] = append(fr[k], it.fractions[k])
			}
			uncov = append(uncov, it.uncovered)
		}
		for k, vs := range keys {
			o.Metrics[k] = median(vs)
		}
		o.Metrics["trace.uncovered_share"] = median(uncov)
		o.Metrics["trace.overhead_share"] = 1 - median(tRates)/median(rates)
		o.Metrics["lbm.cpu_mcells_per_s"] = median(cpuRates) / 1e6
		o.Notes = append(o.Notes, modelTable([3]float64{median(fr[0]), median(fr[1]), median(fr[2])})...)
		path, err := tr.write(cfg.OutDir, cfg.Workload, cfg.Seed)
		if err != nil {
			return o, err
		}
		o.Notes = append(o.Notes, "spans written to "+path)
	}
	return o, nil
}

// diffCells counts the cells whose density or velocity differ between
// the two simulations.
func diffCells(a, b *cluster.Sim) int {
	da, db := a.GatherDensity(), b.GatherDensity()
	va, vb := a.GatherVelocity(), b.GatherVelocity()
	n := 0
	for i := range da {
		if da[i] != db[i] || va[i] != vb[i] {
			n++
		}
	}
	return n
}

// counts are the exact per-device and per-bus totals of one cluster.
type counts struct {
	passes, fragments   int64
	readbacks, busBytes int64
	busTime             time.Duration
}

func deviceCounts(sims []*lbmgpu.Simulator) counts {
	var c counts
	for _, s := range sims {
		d := s.Device()
		c.passes += d.Stats.Passes
		c.fragments += d.Stats.Fragments
		b := d.Bus()
		c.readbacks += b.Up.Ops
		c.busBytes += b.Up.Bytes + b.Down.Bytes
		c.busTime += b.Up.Time + b.Down.Time
	}
	return c
}

// tracedGPUNode times one rank's calls into its backend: the step, the
// exchange callback it makes per dimension, and the border pack and
// ghost unpack the exchange makes. Each rank runs on its own goroutine
// and owns its node, so the open span ids need no locking.
type tracedGPUNode struct {
	cluster.Node
	tr         *tracer
	step, exch int32
}

func (n *tracedGPUNode) Step(exchange func(dim int)) {
	n.step = n.tr.begin("lbmgpu.step", -1)
	n.Node.Step(func(dim int) {
		n.exch = n.tr.begin("mpi.exchange", n.step)
		exchange(dim)
		n.tr.end(n.exch)
	})
	n.tr.end(n.step)
}

func (n *tracedGPUNode) PackBorder(dim, dir int) []float32 {
	id := n.tr.begin("lbmgpu.pack", n.exch)
	defer n.tr.end(id)
	return n.Node.PackBorder(dim, dir)
}

func (n *tracedGPUNode) UnpackGhost(dim, dir int, data []float32) {
	id := n.tr.begin("lbmgpu.unpack", n.exch)
	defer n.tr.end(id)
	n.Node.UnpackGhost(dim, dir, data)
}

// phasedCPUNode is the CPU reference backend with its step split into
// the Lattice phases, called in the order CPUNode.Step calls them.
type phasedCPUNode struct {
	cluster.CPUNode
	tr *tracer
}

func (n *phasedCPUNode) Step(exchange func(dim int)) {
	step := n.tr.begin("lbm.step", -1)
	for dim := 0; dim < 3; dim++ {
		id := n.tr.begin("lbm.ghosts", step)
		n.L.FillGhostDim(dim)
		n.tr.end(id)
		exchange(dim)
	}
	id := n.tr.begin("lbm.stream", step)
	n.L.Stream()
	n.tr.end(id)
	id = n.tr.begin("lbm.collide", step)
	n.L.Collide()
	n.tr.end(id)
	n.tr.end(step)
}

// lbmLayers derives the per-layer figures of a traced iteration, per
// step and per rank for times, per step over the cluster for counts.
func lbmLayers(tr *tracer, sim *cluster.Sim, before, after counts, measured [][2]int64) (map[string]float64, [3]float64, float64) {
	st, _ := tr.runStats(tr.run, nil)
	get := func(name string) *layerStat {
		if s := st[name]; s != nil {
			return s
		}
		return &layerStat{}
	}
	// Only the GPU cluster's root spans count toward coverage: the CPU
	// reference runs after the measured interval.
	_, uncovered := tr.runStats(tr.run, measured)
	perRankStep := float64(lbmSteps * lbmRanks)
	compute := get("lbmgpu.step").Self.Seconds() / perRankStep
	pack := get("lbmgpu.pack").Busy.Seconds() / perRankStep
	unpack := get("lbmgpu.unpack").Busy.Seconds() / perRankStep
	wait := get("mpi.exchange").Self.Seconds() / perRankStep
	var msgs, floats int64
	for _, r := range sim.MPIStats() {
		msgs += r.MessagesSent
		floats += r.FloatsSent
	}
	steps := float64(lbmSteps)
	m := map[string]float64{
		"lbmgpu.compute_s_per_step": compute,
		"lbmgpu.pack_s_per_step":    pack,
		"lbmgpu.unpack_s_per_step":  unpack,
		"mpi.wait_s_per_step":       wait,
		"mpi.messages_per_step":     float64(msgs) / steps,
		"mpi.bytes_per_step":        float64(4*floats) / steps,
		"gpu.passes_per_step":       float64(after.passes-before.passes) / steps,
		"gpu.fragments_per_step":    float64(after.fragments-before.fragments) / steps,
		"bus.readback_ops_per_step": float64(after.readbacks-before.readbacks) / steps,
		"bus.bytes_per_step":        float64(after.busBytes-before.busBytes) / steps,
		"bus.modeled_s_per_step":    (after.busTime - before.busTime).Seconds() / steps,
		"lbm.ghosts_s_per_step":     get("lbm.ghosts").Busy.Seconds() / steps,
		"lbm.stream_s_per_step":     get("lbm.stream").Busy.Seconds() / steps,
		"lbm.collide_s_per_step":    get("lbm.collide").Busy.Seconds() / steps,
	}
	total := compute + pack + unpack + wait
	var fr [3]float64
	if total > 0 {
		fr = [3]float64{compute / total, (pack + unpack) / total, wait / total}
	}
	n := 0
	for _, s := range st {
		n += s.Calls
	}
	m["trace.spans"] = float64(n)
	return m, fr, uncovered
}

// modelTable sets the measured step fractions beside the performance
// model's for the same grid and sub-domain and beside the paper's
// Table 1 row for two nodes. These are references, not gated.
func modelTable(measured [3]float64) []string {
	h := perfmodel.Paper()
	br := h.ClusterStep(lbmGrid, [3]int{lbmSub, lbmSub, lbmSub}, perfmodel.Options{})
	frac := func(parts ...float64) [3]float64 {
		t := parts[0] + parts[1] + parts[2]
		return [3]float64{parts[0] / t, parts[1] / t, parts[2] / t}
	}
	model := frac(br.GPUCompute.Seconds(), br.GPUCPUComm.Seconds(), br.NetNonOverlap.Seconds())
	var paper [3]float64
	for _, r := range perfmodel.PaperTable1 {
		if r.Nodes == lbmRanks {
			paper = frac(r.GPUComputeMS, r.GPUCPUCommMS, r.NetNonOverMS)
		}
	}
	row := func(name string, f [3]float64) string {
		return fmt.Sprintf("  %-44s %8.3f %8.3f %8.3f", name, f[0], f[1], f[2])
	}
	return []string{
		fmt.Sprintf("step fractions, 2 ranks  %-20s %8s %8s %8s", "", "compute", "gpu-cpu", "net"),
		row("measured (simulated GPUs, 24^3 per rank)", measured),
		row("perfmodel.ClusterStep (24^3 per rank)", model),
		row("paper Table 1, 2 nodes (80^3 per node)", paper),
	}
}
