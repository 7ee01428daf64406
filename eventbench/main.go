// Command eventbench measures Janus from event to installed configuration:
// seeded closed-loop workloads drive a durable runtime (or janusd over
// loopback HTTP), an independent checker judges every acknowledged state,
// and the last line of standard output is one JSON result. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many times each run builds its controller from nothing;
// setup_s is the median.
const setupReps = 5

var eventWorkloads = map[string]eventWorkload{
	"ans-dynamics": {
		inputs: inputSpec{Topology: "Ans", Policies: 50, SrcsPerPolicy: 2, Escalations: true},
		round:  RoundSpec{OpMove: 100, OpCounter: 20, OpTick: 4},
		tail:   0.9, minOps: 100, roundSeconds: 7.5,
	},
	"cwix-mobility": {
		inputs: inputSpec{Topology: "Cwix", Policies: 50, SrcsPerPolicy: 2},
		round:  RoundSpec{OpMove: 100, OpCounter: 20, OpTick: 4},
		tail:   0.9, minOps: 100, roundSeconds: 7.5,
	},
}

// roundsFor is how many rounds a run of the given length attempts: the
// length over a round's duration on the calibration host, rounded, and no
// fewer than minOps operations. The count does not depend on how fast the
// host runs today, so every run of a workload does the same work: the
// program keeps a record per reconfiguration (Metrics.TierHistory) that
// every scrape and journal record carries, so a run that held more rounds
// would read a bigger heap, slower scrapes and bigger records.
func roundsFor(seconds, roundSeconds float64, size, minOps int) int {
	n := int(math.Round(seconds / roundSeconds))
	if n*size < minOps {
		n = (minOps + size - 1) / size
	}
	return n
}

func main() {
	// Keep the driving goroutine on one thread: cpuNow reads that thread's
	// CPU clock.
	goruntime.LockOSThread()
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "eventbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "ans-dynamics, cwix-mobility or ans-writers")
	seed := flag.Int64("seed", 1, "schedule seed")
	seconds := flag.Float64("seconds", 10, "how long the closed loop runs on the calibration host")
	trace := flag.Int("trace", 0, "1 replays the run traced and reports per-layer metrics")
	work := flag.String("work", ".bench_build", "directory for stores and trace files")
	flag.Parse()

	if err := os.MkdirAll(*work, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	traceDir := filepath.Join(*work, "trace")

	var out *output
	if w, ok := eventWorkloads[*workload]; ok {
		if *trace == 1 {
			out, err = runEventsTraced(w, *workload, *seed, *seconds, tmp, traceDir)
		} else {
			out, err = runEvents(w, *workload, *seed, *seconds, setupReps, tmp)
		}
	} else if *workload == "ans-writers" {
		out, err = runWriters(*seed, *seconds, *trace == 1, tmp, traceDir)
	} else {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		return err
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
