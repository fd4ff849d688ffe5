package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness command reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadyMain runs the workloads repeatedly, one seed per round, and prints
// for every end-to-end metric the median, the quartiles and the spread
// (interquartile distance over the median) against the metric's bound in
// BENCHMARK.json.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("steady", flag.ExitOnError)
	runs := fs.Int("runs", 10, "runs per workload, each with its own seed")
	seed0 := fs.Int64("seed0", 1, "first seed; run i uses seed0+i")
	netoutBin := fs.String("netout", "", "netout binary to start")
	fs.Parse(args)
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 2
	}
	var bench benchmarkFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		fmt.Fprintln(os.Stderr, "steady: BENCHMARK.json:", err)
		return 2
	}
	seconds := bench.RunSeconds
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 2
	}
	dir, err := os.MkdirTemp(".bench_build", "steady-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	workloads := workloadNames
	values := map[string]map[string][]float64{} // workload → metric → per-run values
	failed := map[string][2]int{}               // workload → {failed, attempted}
	for i := 0; i < *runs; i++ {
		seed := *seed0 + int64(i)
		// Workloads alternate within a round, so slow stretches of the
		// machine fall on every workload alike.
		for _, w := range workloads {
			report := filepath.Join(dir, "report.json")
			cmd := exec.Command(self, "-netout", *netoutBin, "--workload", w,
				"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0", "-report", report)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "steady: %s seed %d: %v\n%s", w, seed, err, stderr.String())
				return 1
			}
			b, err := os.ReadFile(report)
			if err != nil {
				fmt.Fprintln(os.Stderr, "steady:", err)
				return 1
			}
			var rep struct {
				result
				Extra map[string]float64 `json:"extra"`
			}
			if err := json.Unmarshal(b, &rep); err != nil {
				fmt.Fprintln(os.Stderr, "steady:", err)
				return 1
			}
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for k, m := range rep.Metrics {
				values[w][k] = append(values[w][k], m.Value)
			}
			for k, v := range rep.Extra {
				values[w]["("+k+")"] = append(values[w]["("+k+")"], v)
			}
			f := failed[w]
			failed[w] = [2]int{f[0] + rep.Failed, f[1] + rep.Attempted}
			fmt.Fprintf(os.Stderr, "steady: %s seed %d: %.1f qps, p50 %.3f ms, steal %.3f\n", w, seed,
				rep.Metrics["throughput_qps"].Value, rep.Metrics["latency_p50_ms"].Value, rep.Extra["steal_share"])
		}
	}

	fmt.Printf("nproc %d, %s, %d runs per workload, seeds %d..%d, %d s windows\n\n",
		runtime.NumCPU(), runtime.Version(), *runs, *seed0, *seed0+int64(*runs)-1, seconds)
	fmt.Println("| workload | metric | median | q1 | q3 | spread | bound | spread/bound |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	worst := 0.0
	for _, w := range workloads {
		for _, m := range bench.EndToEnd {
			vs := values[w][m.Name]
			q1, med, q3 := quartiles(vs)
			spread := (q3 - q1) / med
			ratio := spread / m.Bound
			if m.Name != "setup_s" && ratio > worst {
				worst = ratio
			}
			fmt.Printf("| %s | %s (%s) | %.4g | %.4g | %.4g | %.3f | %.2f | %.2f |\n",
				w, m.Name, m.Unit, med, q1, q3, spread, m.Bound, ratio)
		}
	}
	fmt.Println()
	fmt.Println("| workload | p99 latency ms (median of runs) | samples per run (median) | failed / attempted |")
	fmt.Println("|---|---|---|---|")
	for _, w := range workloads {
		fmt.Printf("| %s | %.3f | %.0f | %d / %d |\n", w,
			median(values[w]["(latency_p99_ms)"]), median(values[w]["(samples)"]), failed[w][0], failed[w][1])
	}
	fmt.Printf("\nlargest spread/bound outside setup_s: %.2f\n", worst)
	return 0
}

// quartiles returns the first quartile, the median and the third quartile
// of xs by the method of Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}
