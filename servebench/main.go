// Command servebench is the serve-path benchmark: it starts real netout
// processes on loopback, drives one of three workloads closed-loop over
// HTTP, checks every answer against an independent oracle, and prints the
// end-to-end metrics as one JSON line. With --trace 1 it instead replays
// the workload's stream in process through each layer's public function
// and prints the per-layer metrics.
//
// It is run through run.sh from the repository root, which builds netout
// and this command first:
//
//	bash servebench/run.sh --workload interactive --seed 1 --seconds 20 --trace 0
//	bash servebench/run.sh steady -runs 10 -seed0 1
//
// See README.md for the workloads, the metrics and their steadiness.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	netout   string // path of the netout binary
	report   string // optional file for the extra figures the steady command reads
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:]))
	}
	var cfg config
	var trace int
	fs := flag.NewFlagSet("servebench", flag.ExitOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: interactive, scan-pathsim or sharded-net")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the network and the query stream")
	fs.IntVar(&cfg.seconds, "seconds", 10, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1: replay in process and print the per-layer metrics")
	fs.StringVar(&cfg.netout, "netout", "", "netout binary to start")
	fs.StringVar(&cfg.report, "report", "", "write extra figures (p99, sample counts) as JSON to this file")
	fs.Parse(os.Args[1:])
	cfg.trace = trace == 1
	if cfg.netout == "" || cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "servebench: need -netout and a positive --seconds")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		stop()
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run prepares the inputs shared by both modes and dispatches.
func run(ctx context.Context, cfg config) (*result, error) {
	dir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	netPath := filepath.Join(dir, "net.tsv")
	g, err := buildNetwork(cfg.seed, netPath)
	if err != nil {
		return nil, err
	}
	w, err := makeWorkload(cfg.workload, g, cfg.seed)
	if err != nil {
		return nil, err
	}
	if n := runtime.NumCPU(); w.conns > n {
		w.conns = n // never more connections than processors
	}
	queryPath := filepath.Join(dir, "queries.oql")
	if err := os.WriteFile(queryPath, []byte(w.queryFile()), 0o644); err != nil {
		return nil, err
	}
	chk, err := newChecker(g, w)
	if err != nil {
		return nil, err
	}
	in := &inputs{cfg: cfg, dir: dir, netPath: netPath, queryPath: queryPath, w: w, chk: chk}
	if cfg.trace {
		return runTraced(ctx, in)
	}
	return runLoad(ctx, in)
}

// inputs are one run's generated files, stream and expected answers.
type inputs struct {
	cfg                     config
	dir, netPath, queryPath string
	w                       *workload
	chk                     *checker
}

// setupRepeats is how many times a run starts the fleet from scratch to
// time set-up; the last fleet serves the measured window.
const setupRepeats = 9

// runLoad is the untraced run: set-up, warm-up, measured window, checks.
func runLoad(ctx context.Context, in *inputs) (*result, error) {
	w := in.w
	var setups []float64
	var fl *fleet
	defer func() {
		if fl != nil {
			fl.stop()
		}
	}()
	var c *client
	for k := 0; k < setupRepeats; k++ {
		if fl != nil {
			c.close()
			fl.stop()
			fl = nil
		}
		t0 := time.Now()
		var err error
		if fl, err = startFleet(ctx, in.cfg.netout, in.dir, w, in.netPath, in.queryPath); err != nil {
			return nil, err
		}
		c = newClient(fl.url, w.conns)
		if err := firstAnswer(ctx, c, w, in.chk, 60*time.Second); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer c.close()

	origin := time.Now()
	warm := drive(ctx, c, w, w.conns, 0, w.warmup, time.Time{}, origin)
	origin = time.Now()
	stopTicks := make(chan struct{})
	ticksDone := make(chan []tick)
	go func() { ticksDone <- sampleTicks(fl, origin, 25*time.Millisecond, stopTicks) }()
	measured := drive(ctx, c, w, w.conns, w.warmup, 0, origin.Add(time.Duration(in.cfg.seconds)*time.Second), origin)
	close(stopTicks)
	ticks := <-ticksDone
	rss, err := fl.peakRSSMB()
	if err != nil {
		return nil, err
	}
	fl.stop()
	fl = nil
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &result{Correct: true, Attempted: len(setups) + len(warm) + len(measured)}
	for _, s := range append(warm, measured...) {
		if err := checkSample(in, s); err != nil {
			if res.Failed < 5 {
				fmt.Fprintf(os.Stderr, "servebench: query %q: %v\n", w.distinct[w.stream[s.pos%len(w.stream)]].text, err)
			}
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0

	f, err := measureWindow(measured, w.slice, ticks, runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	res.Metrics = map[string]metric{
		"throughput_qps":   {f.throughput, "1/s"},
		"latency_p50_ms":   {f.p50, "ms"},
		"latency_p95_ms":   {f.p95, "ms"},
		"cpu_ms_per_query": {f.cpuPerQuery, "ms"},
		"server_rss_mb":    {rss, "MB"},
		"setup_s":          {median(setups), "s"},
	}
	first, last := ticks[0], ticks[len(ticks)-1]
	extra := map[string]float64{
		"latency_p99_ms": f.p99,
		"samples":        float64(f.samples),
		"slices":         float64(f.slices),
		"slices_kept":    float64(f.kept),
		// The share of processor time the hypervisor gave to other
		// machines over the whole window: context for a slow run.
		"steal_share": float64(last.steal-first.steal) / clockTicks / (last.at - first.at).Seconds() / float64(runtime.NumCPU()),
	}
	printTable(w.name, in.cfg.seed, res, extra)
	if in.cfg.report != "" {
		if err := writeReport(in.cfg.report, res, extra); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func checkSample(in *inputs, s sample) error {
	if s.err != nil {
		return s.err
	}
	_, err := in.chk.check(in.w.stream[s.pos%len(in.w.stream)], s.status, s.body)
	return err
}

// percentile returns the nearest-rank p-quantile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*p+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// printTable writes the run's figures for a human reader to stderr.
func printTable(name string, seed int64, res *result, extra map[string]float64) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(os.Stderr, "workload %s seed %d: %d attempted, %d failed\n", name, seed, res.Attempted, res.Failed)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %-32s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	ek := make([]string, 0, len(extra))
	for k := range extra {
		ek = append(ek, k)
	}
	sort.Strings(ek)
	for _, k := range ek {
		fmt.Fprintf(os.Stderr, "  %-32s %14.4f\n", k, extra[k])
	}
}

func writeReport(path string, res *result, extra map[string]float64) error {
	b, err := json.Marshal(struct {
		*result
		Extra map[string]float64 `json:"extra"`
	}{res, extra})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
