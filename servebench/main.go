// Command servebench is the repository's serving benchmark. It drives
// serve.Server in process: two shards, two closed-loop clients, each client
// submitting 64-request Do calls from a stream it generated (with the exact
// expected outcome of every request) before timing started. Every result is
// checked against its expected outcome.
//
//	bash servebench/run.sh --workload btree-mixed-observed --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run; with
// --trace 1 it reports the per-layer metrics of a traced run, a layer-alone
// replay and a standalone buffer pool, and checks that the workload loads
// the layers it claims to load. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// outcome is the result line.
type outcome struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed of the generated client streams")
	seconds := fs.Float64("seconds", 10, "length of the measured serving window, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
	out := fs.String("out", ".bench_build", "directory for the span files of traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: need --seconds > 0 and --trace 0 or 1")
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))

	var res outcome
	if *trace == 0 {
		res, err = runEndToEnd(w, *seed, dur)
	} else {
		res, err = runLayers(w, *seed, dur, *out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %s: %v\n", w.name, err)
		return 1
	}
	report(w, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// report prints every metric by name with its unit to standard error, and
// a banner when any outcome was wrong.
func report(w workload, res outcome) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s: %d requests, %d failed (failed_frac %.6f)\n",
		w.name, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "%s\nFAILED: %s served %d wrong or failed requests out of %d; the numbers above are not valid\n%s\n",
			strings.Repeat("!", 72), w.name, res.Failed, res.Attempted, strings.Repeat("!", 72))
	}
}

// runEndToEnd is the untraced run behind the end-to-end metrics.
func runEndToEnd(w workload, seed int64, dur time.Duration) (outcome, error) {
	streams, err := makeStreams(w, seed)
	if err != nil {
		return outcome{}, err
	}
	eps, err := runEpisodes(w, streams, dur, nil)
	if err != nil {
		return outcome{}, err
	}
	res := tallyOutcome(eps)
	m := res.Metrics
	m.set("ops_per_s", "1/s", over(eps, episode.opsPerSec))
	m.set("call_p50_us", "us", over(eps, func(e episode) float64 { return micros(quantile(e.calls, 0.50)) }))
	m.set("call_p99_us", "us", over(eps, func(e episode) float64 { return micros(quantile(e.calls, 0.99)) }))
	m.set("read_amp", "ratio", over(eps, func(e episode) float64 { return e.books.meter.ReadAmplification() }))
	m.set("write_amp", "ratio", over(eps, func(e episode) float64 { return e.books.meter.WriteAmplification() }))
	m.set("space_amp", "ratio", over(eps, func(e episode) float64 { return e.books.size.SpaceAmplification() }))
	m.set("device_cost_per_op", "cost/op", over(eps, func(e episode) float64 { return float64(e.books.dev.CostUnits) / float64(e.ops) }))
	m.set("setup_s", "s", over(eps, func(e episode) float64 { return e.setup }))
	m.set("heap_mb", "MiB", over(eps, func(e episode) float64 { return float64(e.heap) / (1 << 20) }))
	m.set("alloc_bytes_per_op", "B/op", over(eps, func(e episode) float64 { return float64(e.allocBytes) / float64(e.ops) }))
	fmt.Fprintf(os.Stderr, "%s: %d episodes of %d timed requests, %.0f to %.0f ops/s\n", w.name, len(eps), eps[0].ops,
		slices.Min(perEpisode(eps, episode.opsPerSec)), slices.Max(perEpisode(eps, episode.opsPerSec)))
	return res, nil
}

// tallyOutcome counts attempted and failed requests over episodes and
// checks each episode's books.
func tallyOutcome(eps []episode) outcome {
	res := outcome{Correct: true, Metrics: metrics{}}
	for _, e := range eps {
		res.Attempted += e.ops + e.warm.ops
		res.Failed += e.mismatches + e.warm.mismatches
		if err := e.check(); err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			res.Correct = false
		}
	}
	return res
}

// liveHeap returns the bytes of live heap after a forced collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
