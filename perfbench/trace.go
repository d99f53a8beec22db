package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// liveHeapMB collects garbage and returns the live Go heap in megabytes
// (2^20 bytes). Call it where the workload's state is largest, while
// that state is still referenced: sampled after a forced collection at
// a fixed point, the figure does not swing with the collector's timing
// the way a peak caught between collections would.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer's epoch; Parent is -1 for a root span.
type span struct {
	Start, End int64
	Parent     int32
	Name       uint8
	Run        uint16
}

// tracer keeps spans in memory for the whole run. It is safe for
// concurrent use: the lbm ranks and the daemon's handlers record from
// their own goroutines.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	names []string
	ids   map[string]uint8
	spans []span
	run   uint16
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), ids: map[string]uint8{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// nextRun starts a new run id: every span recorded until the next call
// belongs to it.
func (t *tracer) nextRun() {
	t.mu.Lock()
	t.run++
	t.mu.Unlock()
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int32) int32 {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	n, ok := t.ids[name]
	if !ok {
		n = uint8(len(t.names))
		t.names = append(t.names, name)
		t.ids[name] = n
	}
	t.spans = append(t.spans, span{Start: start, Parent: parent, Name: n, Run: t.run})
	return int32(len(t.spans) - 1)
}

// end closes span id.
func (t *tracer) end(id int32) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// layerStat aggregates the spans of one name within one run.
type layerStat struct {
	Calls int
	Busy  time.Duration   // summed span time
	Self  time.Duration   // busy minus the time child spans cover
	Durs  []time.Duration // every span's duration
}

// runStats aggregates run r's spans by name and measures the share of
// the measured wall intervals (tracer nanoseconds) no root span covers.
func (t *tracer) runStats(r uint16, measured [][2]int64) (map[string]*layerStat, float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int32]int64)
	var roots [][2]int64
	for _, s := range t.spans {
		if s.Run != r {
			continue
		}
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		} else {
			roots = append(roots, [2]int64{s.Start, s.End})
		}
	}
	out := map[string]*layerStat{}
	for i, s := range t.spans {
		if s.Run != r {
			continue
		}
		name := t.names[s.Name]
		st := out[name]
		if st == nil {
			st = &layerStat{}
			out[name] = st
		}
		d := time.Duration(s.End - s.Start)
		st.Calls++
		st.Busy += d
		st.Self += d - time.Duration(child[int32(i)])
		st.Durs = append(st.Durs, d)
	}
	// Union of the root spans, clipped to each measured interval.
	sort.Slice(roots, func(i, k int) bool { return roots[i][0] < roots[k][0] })
	var covered, total int64
	for _, m := range measured {
		total += m[1] - m[0]
		reach := m[0]
		for _, iv := range roots {
			lo, hi := max(iv[0], reach), min(iv[1], m[1])
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
	}
	if total == 0 {
		return out, 0
	}
	return out, 1 - float64(covered)/float64(total)
}

// write saves every span as tab-separated text under dir and returns
// the file's path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.tsv", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "run\tid\tparent\tname\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.Run, i, s.Parent, t.names[s.Name], s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// durQuantile returns the q-quantile of ds in seconds.
func durQuantile(ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return quantile(xs, q)
}
