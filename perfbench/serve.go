package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpucluster/internal/batch"
	"gpucluster/internal/batch/server"
	"gpucluster/internal/netsim"
)

// The serve workload runs the daemon in process on loopback, as in
// production: a wall clock at a fixed compression and the default
// MemRecorder. One generator goroutine feeds it open loop at a fixed
// rate over one keep-alive connection, and times each POST /v1/jobs
// from the instant it was due whenever the previous response held it
// back, so a stall is charged to every request it delays. Each window
// builds a fresh daemon; a run is as many windows as fit in the budget.
const (
	serveNodes    = 32
	serveRate     = 200 // submits per second
	serveCompress = 1500
	windowLength  = 4 * time.Second
	// serveSetupReps is how many daemons each window builds; the set-up
	// figure is the median over every build of the run.
	serveSetupReps = 15
)

// serveWindowResult is what one window measured.
type serveWindowResult struct {
	traced   bool
	lat      []float64 // ms to the response of each accepted submit
	late     []float64 // ms the generator started a request after its due time
	wall     time.Duration
	accepted int
	mem      float64 // live heap at the end of the window, MB
	layers   map[string]float64
}

func runServe(cfg runConfig) (outcome, error) {
	o := newOutcome()
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	var (
		setups  []float64
		windows []serveWindowResult
	)
	err := loop(cfg.Budget, 2, func(i int) error {
		traced := cfg.Trace && i%2 == 1
		if traced {
			tr.nextRun()
		}
		w, attempted, failed, setup, err := serveWindow(subSeed(cfg.Seed, i), traced, tr)
		if err != nil {
			return err
		}
		setups = append(setups, setup...)
		o.Attempted += attempted
		o.Failed += failed
		windows = append(windows, w)
		return nil
	})
	if err != nil {
		return o, err
	}
	// Each window's percentiles, then the median over the windows: a
	// stall of the host in one window does not move the run's figure.
	// The tail is the p90: on a VM the host's stalls of a few ms set
	// the p95 and beyond, not the daemon. The p99 pools every window's
	// samples and is printed, not gated.
	var lat, p50s, p90s, rates, tP50s, mem []float64
	for _, w := range windows {
		if w.traced {
			tP50s = append(tP50s, quantile(w.lat, 0.5))
			continue
		}
		lat = append(lat, w.lat...)
		p50s = append(p50s, quantile(w.lat, 0.5))
		p90s = append(p90s, quantile(w.lat, 0.90))
		rates = append(rates, float64(w.accepted)/w.wall.Seconds())
		mem = append(mem, w.mem)
	}
	p50 := median(p50s)
	o.Metrics["setup_s"] = median(setups)
	o.Metrics["work_per_s"] = median(rates)
	o.Metrics["latency_p50_ms"] = p50
	o.Metrics["latency_p90_ms"] = median(p90s)
	o.Metrics["mem_peak_mb"] = median(mem)
	o.fig("submit_p99_ms", "ms", "lower", quantile(lat, 0.99))
	o.fig("submit_samples", "count", "", float64(len(lat)))
	o.fig("windows", "count", "", float64(len(rates)))
	o.fig("offered_rate", "1/s", "", serveRate)
	if cfg.Trace {
		keys := map[string][]float64{}
		for _, w := range windows {
			for k, v := range w.layers {
				keys[k] = append(keys[k], v)
			}
		}
		for k, vs := range keys {
			o.Metrics[k] = median(vs)
		}
		// The daemon's headline figure is its latency, so the overhead
		// is the traced median's rise over the untraced one.
		o.Metrics["trace.overhead_share"] = median(tP50s)/p50 - 1
		path, err := tr.write(cfg.OutDir, cfg.Workload, cfg.Seed)
		if err != nil {
			return o, err
		}
		o.Notes = append(o.Notes, "spans written to "+path)
	}
	return o, nil
}

// daemon is one running server.
type daemon struct {
	srv    *server.Server
	served chan error
	base   string
}

// startDaemon builds a server, binds a loopback port and starts serving.
// The server is ready to serve once Serve has started the engine, built
// its HTTP server and first asked the listener for a connection:
// startDaemon returns that instant, then confirms readiness with one
// request. The request's round trip is not set-up time; the latency
// metrics measure round trips.
func startDaemon(cfg server.Config) (*daemon, time.Time, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, time.Time{}, err
	}
	al := &acceptSignal{Listener: l, at: make(chan time.Time, 1)}
	d := &daemon{srv: server.New(cfg), served: make(chan error, 1), base: "http://" + l.Addr().String()}
	go func() { d.served <- d.srv.Serve(al) }()
	var ready time.Time
	select {
	case ready = <-al.at:
	case err := <-d.served:
		return nil, time.Time{}, fmt.Errorf("daemon stopped before serving: %v", err)
	}
	cl := &server.Client{Base: d.base}
	for {
		if _, err := cl.Queue(); err == nil {
			return d, ready, nil
		} else if time.Since(ready) > 5*time.Second {
			d.stop()
			return nil, ready, fmt.Errorf("daemon not ready: %w", err)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// acceptSignal is a listener that sends the time of its first Accept
// call on at.
type acceptSignal struct {
	net.Listener
	once sync.Once
	at   chan time.Time
}

func (l *acceptSignal) Accept() (net.Conn, error) {
	l.once.Do(func() { l.at <- time.Now() })
	return l.Listener.Accept()
}

// stop shuts the daemon down, waits for Serve to return, and returns
// the report Shutdown drained.
func (d *daemon) stop() (batch.Report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep, err := d.srv.Shutdown(ctx)
	if serr := <-d.served; err == nil {
		err = serr
	}
	return rep, err
}

// serveWindow builds a daemon (timing its set-up), feeds it one window
// of open-loop submits, drains it and checks it.
func serveWindow(seed int64, traced bool, tr *tracer) (w serveWindowResult, attempted, failed int, setups []float64, err error) {
	w.traced = traced
	mix := batch.SyntheticMix(seed, int(serveRate*windowLength.Seconds()), serveNodes)
	specs := make([]server.JobSpec, len(mix))
	for i, j := range mix {
		specs[i] = server.JobSpec{Name: j.Name, Kind: j.Kind.String(), Nodes: j.Nodes,
			Priority: j.Priority, Steps: j.Steps, User: j.User}
	}

	var cur atomic.Int32 // the submit span an Estimate call nests in
	cur.Store(-1)
	var d *daemon
	for r := 0; r < serveSetupReps; r++ {
		if d != nil {
			if _, err := d.stop(); err != nil {
				return w, 0, 0, nil, err
			}
		}
		t0 := time.Now()
		cfg := server.Config{
			Batch: batch.Config{
				Cluster: batch.NewCluster(serveNodes, netsim.GigabitSwitch(serveNodes)),
				Policy:  batch.Backfill,
			},
			Compress: serveCompress,
		}
		if traced {
			est := batch.NewPerfEstimator()
			cfg.Batch.Estimate = func(j *batch.Job) time.Duration {
				id := tr.begin("server.estimate", cur.Load())
				defer tr.end(id)
				return est.Estimate(j)
			}
		}
		var ready time.Time
		if d, ready, err = startDaemon(cfg); err != nil {
			return w, 0, 0, nil, err
		}
		setups = append(setups, ready.Sub(t0).Seconds())
	}

	transport := &http.Transport{MaxIdleConnsPerHost: 1}
	defer transport.CloseIdleConnections()
	cl := &server.Client{Base: d.base, HTTP: &http.Client{Transport: transport}}
	var (
		ids     []int
		rttBusy time.Duration
	)
	var from int64
	if traced {
		from = tr.now()
	}
	start := time.Now()
	prevEnd := start
	gap := time.Second / serveRate
	for i, spec := range specs {
		due := start.Add(time.Duration(i) * gap)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		w.late = append(w.late, float64(sent.Sub(due))/1e6)
		// A request held back by the previous response is timed from its
		// due time, so a stall of the daemon is charged to every request
		// it delays. One sent late only because the generator's sleep
		// overshot is timed from when it was sent: the host's timer is
		// not the daemon. The overshoot is reported as generator lateness.
		origin := sent
		if prevEnd.After(due) {
			origin = due
		}
		cl.User = spec.User
		var id int32 = -1
		if traced {
			id = tr.begin("server.submit", -1)
			cur.Store(id)
		}
		v, err := cl.Submit(spec)
		prevEnd = time.Now()
		if traced {
			tr.end(id)
		}
		attempted++
		if err != nil {
			failed++
			continue
		}
		rttBusy += prevEnd.Sub(sent)
		w.lat = append(w.lat, float64(prevEnd.Sub(origin))/1e6)
		ids = append(ids, v.ID)
	}
	w.wall = time.Since(start)
	w.accepted = len(ids)
	var to int64
	if traced {
		to = tr.now()
	}

	w.mem = liveHeapMB() // the daemon's state after a window of load
	q, err := cl.Queue()
	if err != nil {
		d.stop()
		return w, attempted, failed, setups, fmt.Errorf("queue: %w", err)
	}
	var scraped map[string]float64
	if traced {
		text, err := cl.Metrics()
		if err != nil {
			d.stop()
			return w, attempted, failed, setups, fmt.Errorf("metrics: %w", err)
		}
		scraped = parsePrometheus(text)
	}
	transport.CloseIdleConnections()
	shut, err := d.stop()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return w, attempted, failed, setups, fmt.Errorf("shutdown: %w", err)
	}
	// Shutdown ran every event already due on the wall clock; finish the
	// rest of the schedule in virtual time, then every accepted job must
	// be terminal and done.
	final := d.srv.Engine().Run()
	attempted++
	if len(final.Jobs) != len(ids) {
		failed++
	}
	for _, id := range ids {
		st, err := d.srv.Engine().JobStatus(id)
		if err != nil || st.State != batch.Done {
			failed++
		}
	}
	if traced {
		waits := make([]float64, 0, len(final.Jobs))
		for _, j := range final.Jobs {
			waits = append(waits, j.Wait().Seconds())
		}
		w.layers = map[string]float64{
			"server.submit.calls":            float64(attempted - 1),
			"server.submit.rtt_busy_s":       rttBusy.Seconds(),
			"server.pass.calls":              scraped["batch_scheduler_passes_total"],
			"server.pass.wall_s":             scraped["batch_pass_wall_seconds_sum"],
			"server.placement.candidates":    scraped["batch_placement_candidates_total"],
			"server.recorder.events_per_job": float64(len(shut.Events)) / float64(max(len(ids), 1)),
			"server.gen.late_p99_ms":         quantile(w.late, 0.99),
			"server.gen.late_max_ms":         quantile(w.late, 1),
			"server.backlog.queued_end":      float64(q.Queued),
			"server.dispatch_wait_p50_s":     quantile(waits, 0.5),
			"server.dispatch_wait_p99_s":     quantile(waits, 0.99),
		}
		// Open loop: the generator idles between due times, so most of
		// the window is uncovered by design.
		layers, uncov := tr.runStats(tr.run, [][2]int64{{from, to}})
		w.layers["trace.uncovered_share"] = uncov
		for _, st := range layers {
			w.layers["trace.spans"] += float64(st.Calls)
		}
		if st := layers["server.estimate"]; st != nil {
			w.layers["server.estimate.calls"] = float64(st.Calls)
			w.layers["server.estimate.busy_s"] = st.Busy.Seconds()
		}
	}
	return w, attempted, failed, setups, nil
}

// parsePrometheus reads the unlabelled samples of a text exposition.
func parsePrometheus(text string) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] += v
		}
	}
	return out
}
