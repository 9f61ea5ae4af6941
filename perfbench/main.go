// Command perfbench is the nwcq benchmark. It builds one workload's
// backend through the library, serves it in-process with
// internal/server on a loopback listener, drives it from the same
// process with a seeded op list, checks every answer, and prints the
// workload's metrics as one JSON object on the last line of standard
// output: the end-to-end metrics by default, the per-layer metrics with
// --trace 1.
//
//	bash perfbench/run.sh --workload dense --seed 1 --seconds 30 --trace 0
//
// Workloads, metrics and their bounds are listed in BENCHMARK.json at
// the repository root; perfbench/README.md describes each metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: dense, sharded or durable-mixed")
	seed := flag.Int64("seed", 1, "seed of the generated data and requests")
	seconds := flag.Float64("seconds", 30, "length of the measured phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	dir := flag.String("dir", ".bench_build", "directory for page files and WAL segments")
	flag.Parse()

	wl, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload dense|sharded|durable-mixed --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg := config{
		wl: wl, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *traceFlag == 1, dir: *dir,
	}
	res, prov, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(prov); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}
