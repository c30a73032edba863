// Command perfbench is the repository's benchmark: it serves a fitted
// monitor with serve.NewServer on a loopback listener, drives one of
// three open-loop traffic mixes against it from the same process, checks
// every served verdict against the offline Runner, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics of a
// separate traced run). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	go build -o perfbench . && ./perfbench --workload mux-ca-30hz --seed 1 --seconds 35 --trace 0
//
// --workload all runs every workload in turn (one child process each).
// A full report, with sample counts, host facts and every phase, is
// written under .bench_build/reports/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

var procStart = time.Now()

// reportDir holds the full per-run reports and span dumps, relative to
// the working directory (the checkout root).
const reportDir = ".bench_build/reports"

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 20, "measuring time of one run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the timed one")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *trace))
	}
	w := findWorkload(*name)
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s, all)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	rep, res, err := run(context.Background(), w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeReport(rep, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *trace)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: write report:", err)
	}
	printResult(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func printResult(res *result) {
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// run executes one workload and returns its report and result line.
func run(ctx context.Context, w *workload, seed int64, seconds int, traced bool) (*report, *result, error) {
	rep := &report{Workload: w.name, Why: w.why, Seed: seed, Seconds: seconds, Traced: traced,
		Host: currentHost(), LatencyLimitMS: latencyLimitMS}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%v nproc=%d gomaxprocs=%d go=%s\n",
		w.name, seed, seconds, traced, rep.Host.NumCPU, rep.Host.GOMAXPROCS, rep.Host.GoVersion)
	if traced {
		res, err := runTraced(ctx, w, seed, seconds, rep)
		return rep, res, err
	}
	res, err := runTimed(ctx, w, seed, seconds, rep)
	return rep, res, err
}

func writeReport(rep *report, file string) error {
	if err := os.MkdirAll(reportDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(reportDir, file), b, 0o644)
}

// runAll runs every workload as a child process, echoing its output, and
// prints one combined result whose metric names are prefixed with the
// workload. It returns the exit code.
func runAll(seed int64, seconds, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	all := &result{Correct: true, Metrics: map[string]metric{}}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		os.Stdout.Write(out)
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil || err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s failed: %v\n", w.name, err)
			all.Correct = false
			code = 1
			continue
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[w.name+"/"+k] = v
		}
	}
	if !all.Correct {
		code = 1
	}
	printResult(all)
	return code
}

// printMetrics prints metrics as an aligned name/value/unit table with
// an optional note per metric.
func printMetrics(ms map[string]metric, notes map[string]string) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-32s %14.4f %-12s %s\n", k, ms[k].Value, ms[k].Unit, notes[k])
	}
}
