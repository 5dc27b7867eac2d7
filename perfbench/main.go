// Command perfbench is the repository's benchmark: it runs one workload on
// the simulator from a single process on the serial executor, verifies
// every output, checks that every simulated count repeats exactly, and
// prints the metrics BENCHMARK.json declares, ending with one JSON line.
//
//	bash perfbench/run.sh --workload medium-dram-kmp --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured untraced; with
// --trace 1 it alternates untraced and traced repeats and prints the
// per-layer metrics (see README.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (one of BENCHMARK.json's workloads)")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "measure for at least this many host seconds")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from traced repeats, 0 = end-to-end metrics")
	record := fs.Int("record-reference", 0, "instead of benchmarking, measure small-sampled-kmp's full-detail cycle count for seeds 1..N and print reference.json")
	commit := fs.String("commit", "", "commit recorded with --record-reference")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record > 0 {
		if err := recordReference(stdout, *record, *commit); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if !sp.hasWorkload(*name) {
		fmt.Fprintf(stderr, "perfbench: workload %q is not declared in BENCHMARK.json\n", *name)
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	traced := *trace == 1

	res, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), traced, stdout)
	line := resultLine{Correct: err == nil, Metrics: map[string]metricValue{}}
	if res != nil {
		line.Attempted, line.Failed = res.attempted, res.failed
	}
	if err == nil {
		var values map[string]float64
		if traced {
			values, err = res.perLayer(*seed)
		} else {
			values = res.endToEnd()
		}
		declared := sp.EndToEnd
		if traced {
			declared = sp.PerLayer
		}
		if err == nil {
			line.Metrics, err = bind(declared, values)
		}
		if err == nil && traced {
			fmt.Fprintln(stdout, "spans over all repeats:")
			res.spans.write(stdout)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		line.Correct = false
	}
	out, jerr := json.Marshal(line)
	if jerr != nil {
		fmt.Fprintln(stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !line.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// specMetric is one metric declaration in BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// bind attaches the declared units to the computed values. The declared
// and computed metric sets must match exactly, so BENCHMARK.json and the
// code cannot drift apart.
func bind(declared []specMetric, values map[string]float64) (map[string]metricValue, error) {
	out := map[string]metricValue{}
	var errs []error
	for _, m := range declared {
		v, ok := values[m.Name]
		if !ok {
			errs = append(errs, fmt.Errorf("declared metric %q was not measured", m.Name))
			continue
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			errs = append(errs, fmt.Errorf("measured metric %q is not declared", name))
		}
	}
	return out, errors.Join(errs...)
}
