// Command perfbench is the repository benchmark: it runs one named workload
// of the simulator for a fixed host-time budget, checks every iteration's
// simulated output, and prints the end-to-end metrics (untraced run) or the
// per-layer split (traced run) as the last line of standard output.
//
//	perfbench --workload paper_comparison --seed 1 --seconds 25 --trace 0
//
// Load shape: a closed loop with one client. One scenario runs at a time at
// exp parallelism 1; the only extra goroutines are partitioned_2048's two
// partition workers, paper_live's subscriber drain and the heap sampler.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"ibmig/internal/exp"
)

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 25, "host seconds of timed iterations")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload {%s} --seed N --seconds S>=1 --trace {0|1}\n", workloadNames())
		os.Exit(2)
	}
	exp.SetParallelism(1)

	r := run(w, *seed, *seconds, *trace == 1)

	info, err := json.Marshal(map[string]any{
		"host": fingerprint(), "workload": *name, "seed": *seed, "trace": *trace,
		"iterations": r.attempted, "wall_samples_s": r.walls, "calibration_samples_s": r.cals,
		"errors": r.errors,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(info))
	if r.spans != nil {
		path, err := writeSpans(*name, *seed, r.spans)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	}
	out, err := json.Marshal(map[string]any{
		"correct": r.failed == 0 && r.attempted > 0, "attempted": r.attempted,
		"failed": r.failed, "metrics": r.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// fingerprint identifies the host a result was measured on.
func fingerprint() map[string]any {
	return map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
	}
}
