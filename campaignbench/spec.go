package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// specFile is the benchmark definition, read from the repository root.
const specFile = "BENCHMARK.json"

// benchSpec is the part of BENCHMARK.json the benchmark itself reads:
// the workload names, and each metric's unit, direction and bound. The
// file is the single home of those facts; the benchmark refuses to run
// when its own metric set disagrees with it.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	for _, w := range s.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			return nil, fmt.Errorf("%s names workload %q, which the benchmark does not define", path, w.Name)
		}
	}
	if len(s.Workloads) != len(workloads) {
		return nil, fmt.Errorf("%s lists %d workloads, the benchmark defines %d", path, len(s.Workloads), len(workloads))
	}
	return &s, nil
}

// metrics returns the metric list reported in one trace mode.
func (s *benchSpec) metrics(trace bool) []metricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// lowerIsBetter reports the direction of a metric.
func (m metricSpec) lowerIsBetter() bool { return m.Better == "lower" }
