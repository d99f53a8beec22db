package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// compareMain runs the benchmark in two source trees, a parent (base)
// and a change (head), in alternating pairs, and judges every
// end-to-end metric of every workload by the rule of choosing-metrics
// §8: a gain needs the change to win at least 9 of 10 pairs and to move
// the median by more than the parent's own interquartile range, and
// no larger share of failed operations than the parent; a metric whose
// parent spread is wider than its bound is unresolved, unless every run
// of the change beats every run of the parent, which shows it did not
// regress but is no gain. Each run measures for BENCHMARK.json's
// run_seconds. It uses the standard library only.
//
//	perfbench compare -base ../parent -head . [-pairs 10] [-workloads drain,lbm]
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	base := fs.String("base", "", "source tree of the parent commit")
	head := fs.String("head", ".", "source tree of the change")
	pairs := fs.Int("pairs", 10, "alternating base/head pairs per workload")
	only := fs.String("workloads", "", "comma-separated workloads; empty runs all")
	seed0 := fs.Int64("seed", 1000, "seed of the first pair; pair p uses seed+p on both sides")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *base == "" {
		return errors.New("-base is required")
	}
	spec, err := loadSpec(*head)
	if err != nil {
		return err
	}
	var names []string
	for _, w := range spec.Workloads {
		if *only == "" || strings.Contains(","+*only+",", ","+w.Name+",") {
			names = append(names, w.Name)
		}
	}
	fmt.Printf("%-6s %-15s %24s %24s %7s %6s %5s  %s\n",
		"load", "metric", "base median [q1,q3]", "head median [q1,q3]", "base", "bound", "wins", "verdict")
	fmt.Printf("%-6s %-15s %24s %24s %7s\n", "", "", "", "", "iqr")
	for _, name := range names {
		var runs [2][]result
		for p := 0; p < *pairs; p++ {
			order := []int{0, 1}
			if p%2 == 1 {
				order = []int{1, 0}
			}
			for _, side := range order {
				dir := []string{*base, *head}[side]
				r, err := runOnce(dir, spec.Command, name, *seed0+int64(p), spec.RunSeconds)
				if err != nil {
					return fmt.Errorf("%s in %s: %w", name, dir, err)
				}
				runs[side] = append(runs[side], r)
			}
		}
		var failShare [2]float64
		for side, label := range []string{"base", "head"} {
			att, fail, bad := 0, 0, 0
			for _, r := range runs[side] {
				att += r.Attempted
				fail += r.Failed
				if !r.Correct {
					bad++
				}
			}
			failShare[side] = float64(fail) / float64(max(att, 1))
			fmt.Printf("%-6s %-15s %s: %d of %d operations failed (%.3g), %d of %d runs incorrect\n",
				name, "failed", label, fail, att, failShare[side], bad, len(runs[side]))
		}
		for _, m := range spec.EndToEnd {
			fmt.Println(judge(name, m, runs[0], runs[1], failShare[1] > failShare[0]))
		}
	}
	return nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// runOnce runs the benchmark command in dir and parses its result line.
func runOnce(dir string, command []string, workload string, seed int64, seconds int) (result, error) {
	var r result
	if len(command) == 0 {
		return r, errors.New("BENCHMARK.json has no command")
	}
	args := append(append([]string(nil), command[1:]...),
		"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd := exec.Command(command[0], args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return r, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return r, fmt.Errorf("result line: %w", err)
	}
	return r, nil
}

// judge applies the §8 rule to one metric of one workload. moreFailed
// says the change failed a larger share of its operations than the
// parent, which rules out a gain.
func judge(workload string, m metricSpec, base, head []result, moreFailed bool) string {
	val := func(rs []result, i int) float64 { return rs[i].Metrics[m.Name].Value }
	var b, h []float64
	wins, all := 0, true
	for i := range base {
		bv, hv := val(base, i), val(head, i)
		b, h = append(b, bv), append(h, hv)
		if better(m, hv, bv) {
			wins++
		}
	}
	for _, bv := range b {
		for _, hv := range h {
			if !better(m, hv, bv) {
				all = false
			}
		}
	}
	bm, hm := median(b), median(h)
	iqr := quantile(b, 0.75) - quantile(b, 0.25)
	spread := iqr / bm
	change := (hm - bm) / bm
	if m.Better == "higher" {
		change = -change // positive change is now always worse
	}
	won := spread <= m.Bound && 10*wins >= 9*len(base) && abs64(hm-bm) > iqr && change < 0
	verdict := "no change within bound"
	switch {
	case won && !moreFailed:
		verdict = fmt.Sprintf("gain (%.1f%%)", -100*change)
	case won:
		verdict = "no gain: more operations failed than at the parent"
	case spread > m.Bound && all:
		verdict = "no regression (every run better)"
	case spread > m.Bound:
		verdict = "unresolved: parent spread wider than bound"
	case change > m.Bound:
		verdict = fmt.Sprintf("REGRESSION (%.1f%% worse)", 100*change)
	}
	return fmt.Sprintf("%-6s %-15s %24s %24s %6.1f%% %5.0f%% %2d/%-2d  %s", workload, m.Name,
		fmt.Sprintf("%.4g [%.4g,%.4g]", bm, quantile(b, 0.25), quantile(b, 0.75)),
		fmt.Sprintf("%.4g [%.4g,%.4g]", hm, quantile(h, 0.25), quantile(h, 0.75)),
		100*spread, 100*m.Bound, wins, len(base), verdict)
}

func better(m metricSpec, x, than float64) bool {
	if m.Better == "higher" {
		return x > than
	}
	return x < than
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
