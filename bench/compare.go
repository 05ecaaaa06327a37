package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// Manifest is BENCHMARK.json: the workloads, and every metric with its
// unit, direction and — for end-to-end ones — the bound by which it may
// worsen before a change counts as a regression.
type Manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// MetricSpec is one metric's entry in the manifest.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// LoadManifest reads BENCHMARK.json.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return &m, nil
}

// LoadResults reads a result file: one Result per line, as AppendTo
// writes them.
func LoadResults(path string) ([]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []Result
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("bench: parse %s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// Compare prints one row per workload × end-to-end metric with both
// sets' medians and quartiles, the fixed bound and a verdict, and
// reports whether any row is worse. B is worse than A when its median is
// worse by more than the bound. Where either set's own spread (the
// distance between its quartiles, as a share of its median) is wider
// than the bound the row is unresolved — the sets cannot tell — unless
// every run of B reads better than every run of A. Sets whose runs of a
// workload were not made with the same seeds, --seconds and GOMAXPROCS
// measure different work and are refused.
func Compare(w io.Writer, m *Manifest, a, b []Result) (worse bool, err error) {
	for _, wl := range m.Workloads {
		if sa, sb := settings(a, wl.Name), settings(b, wl.Name); sa != sb {
			return false, fmt.Errorf("bench: the sets ran %s with different settings: A %s, B %s", wl.Name, sa, sb)
		}
	}
	fmt.Fprintf(w, "%-20s %-16s %12s %25s %12s %25s %7s %8s  %s\n",
		"workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "bound", "change", "verdict")
	for _, wl := range m.Workloads {
		for _, spec := range m.EndToEnd {
			av, bv := values(a, wl.Name, spec.Name), values(b, wl.Name, spec.Name)
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(w, "%-20s %-16s missing from one set (A has %d runs, B %d)\n", wl.Name, spec.Name, len(av), len(bv))
				continue
			}
			am, bm := median(av), median(bv)
			// change is how much worse B's median is, as a share of A's.
			change := ratio(bm-am, am)
			if spec.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			switch {
			case spread(av) > spec.Bound || spread(bv) > spec.Bound:
				if !allBetter(bv, av, spec.Better) {
					verdict = "unresolved"
				}
			case change > spec.Bound:
				verdict = "worse"
				worse = true
			}
			fmt.Fprintf(w, "%-20s %-16s %12.6g %25s %12.6g %25s %6.1f%% %+7.2f%%  %s\n",
				wl.Name, spec.Name, am, quartiles(av), bm, quartiles(bv), 100*spec.Bound, 100*change, verdict)
		}
	}
	return worse, nil
}

// settings lists, sorted, the distinct seed, --seconds and GOMAXPROCS a
// set ran a workload's untraced runs with.
func settings(results []Result, workload string) string {
	var out []string
	for _, r := range results {
		h := r.Header
		s := fmt.Sprintf("seed=%d seconds=%g gomaxprocs=%d", h.Seed, h.Seconds, h.GOMAXPROCS)
		if h.Workload == workload && !h.Trace && !slices.Contains(out, s) {
			out = append(out, s)
		}
	}
	slices.Sort(out)
	return "[" + strings.Join(out, "; ") + "]"
}

func values(results []Result, workload, metric string) []float64 {
	var out []float64
	for _, r := range results {
		if m, ok := r.Metrics[metric]; ok && r.Header.Workload == workload && !r.Header.Trace {
			out = append(out, m.Value)
		}
	}
	return out
}

func spread(v []float64) float64 {
	return ratio(quantile(v, 0.75)-quantile(v, 0.25), median(v))
}

func quartiles(v []float64) string {
	return fmt.Sprintf("[%.6g, %.6g]", quantile(v, 0.25), quantile(v, 0.75))
}

// allBetter reports whether every value of b is better than every one
// of a.
func allBetter(b, a []float64, better string) bool {
	for _, x := range b {
		for _, y := range a {
			if (better == "higher" && x <= y) || (better != "higher" && x >= y) {
				return false
			}
		}
	}
	return true
}
