// Command perfbench is the repository's end-to-end certify benchmark.
// It starts the dipserve binary built from the same checkout in its own
// process, drives one closed-loop workload against it over HTTP, checks
// every response, and prints the end-to-end metrics; with -trace 1 it
// instead runs the layer-by-layer traced pass. Run it through run.sh,
// which builds both binaries; README.md documents the workloads, the
// metrics and how to check steadiness.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	server   string // dipserve binary
}

// workDir holds every file a run writes (ledgers, access logs, spans),
// relative to the checkout root the benchmark runs from.
const workDir = ".bench_build"

// boots is the number of server boots per run; setup_s is their median.
const boots = 7

// runLimit bounds one workload's run (the traced pass takes ~90 s on
// two vCPUs), so that a server that hangs fails the run instead of
// stalling the benchmark.
const runLimit = 175 * time.Second

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is derived from")
	fs.IntVar(&o.seconds, "seconds", 15, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	fs.StringVar(&o.server, "server", "", "dipserve binary to benchmark")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if o.server == "" || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need -server, -seconds >= 1 and -trace 0 or 1")
		return 2
	}
	// "all" runs the three workloads one after another, each with its
	// own report; BENCHMARK.json's command names one workload per run.
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	}
	for _, name := range names {
		o.workload = name
		watchdog := time.AfterFunc(runLimit, func() {
			// The servers die with this process (Pdeathsig).
			fmt.Fprintf(stderr, "perfbench: %s did not finish within %v\n", name, runLimit)
			os.Exit(1)
		})
		res, notes, err := execute(&o)
		watchdog.Stop()
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		printReport(stdout, &o, res, notes)
	}
	return 0
}

// execute generates the workload's inputs and runs the timed or the
// traced pass in a private directory that is removed afterwards.
func execute(o *options) (*result, map[string]any, error) {
	dir, err := filepath.Abs(filepath.Join(workDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	notes := provenance(dir)
	t0 := time.Now()
	wl, err := newWorkload(o.workload, o.seed, o.seconds)
	if err != nil {
		return nil, nil, err
	}
	notes["input_gen_s"] = time.Since(t0).Seconds()

	st := &runState{o: o, wl: wl, dir: dir, client: newClient(wl.clients), notes: notes}
	if wl.history > 0 {
		t := time.Now()
		st.history = filepath.Join(dir, "history")
		if err := buildHistory(st.history, o.seed, wl.history); err != nil {
			return nil, nil, fmt.Errorf("build ledger history: %w", err)
		}
		notes["history_entries"] = wl.history
		notes["history_build_s"] = time.Since(t).Seconds()
	}
	if o.trace {
		err = st.traced()
	} else {
		err = st.timed()
	}
	if err != nil {
		return nil, nil, err
	}
	res := &result{Attempted: st.attempted, Failed: st.failed, Metrics: st.metrics}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if len(st.failures) > 0 {
		notes["first_failures"] = st.failures
	}
	return res, notes, nil
}

// runState carries one run's inputs, counters and outputs.
type runState struct {
	o       *options
	wl      *workload
	dir     string
	history string // pristine fresh-durable ledger history, if any
	client  *http.Client
	notes   map[string]any
	metrics map[string]metric

	attempted, failed int
	failures          []string // first few failure messages
	setupFP           map[*request]string
}

// fail records a failed operation.
func (st *runState) fail(err error) {
	st.failed++
	if len(st.failures) < 5 {
		st.failures = append(st.failures, err.Error())
	}
}

func printReport(w io.Writer, o *options, res *result, notes map[string]any) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(w, "%-14s %-28s %14.6g %s", o.workload, k, m.Value, m.Unit)
		if k == "tail_ms" {
			fmt.Fprintf(w, " (p%v of %v operations)", notes["tail_percentile"], notes["ops"])
		}
		fmt.Fprintln(w)
	}
	prov, _ := json.Marshal(map[string]any{"provenance": notes})
	fmt.Fprintln(w, string(prov))
	line, _ := json.Marshal(res)
	fmt.Fprintln(w, string(line))
}
