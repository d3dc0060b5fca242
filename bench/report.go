package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// The noise self-test's arithmetic, the same the driver applies: for
// each workload and end-to-end metric, the spread of the runs of one set
// (the distance between the first and third quartile as a share of the
// median) and the drift between two sets of the same code (how much
// worse the second median is than the first), each against the metric's
// bound in BENCHMARK.json.

// benchmarkFile is the part of BENCHMARK.json the report needs.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// resultLine is one line of bench/out/results-*.jsonl.
type resultLine struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   result `json:"result"`
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) does (the exclusive method).
func quartiles(values []float64) (q1, q3 float64) {
	s := sortedCopy(values)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q3 := quartiles(values)
	return ratio(q3-q1, median(values))
}

// worsening is by how much of a's value b is worse, for a metric whose
// better direction is given; negative when b is better.
func worsening(a, b float64, better string) float64 {
	if better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

func readResults(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		var l resultLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !l.Result.Correct {
			return nil, fmt.Errorf("%s: %s seed %d failed %d of %d ops", path, l.Workload, l.Seed, l.Result.Failed, l.Result.Attempted)
		}
		byMetric := out[l.Workload]
		if byMetric == nil {
			byMetric = map[string][]float64{}
			out[l.Workload] = byMetric
		}
		names := make([]string, 0, len(l.Result.Metrics))
		for name := range l.Result.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			byMetric[name] = append(byMetric[name], l.Result.Metrics[name].Value)
		}
	}
	return out, sc.Err()
}

// steadyShare of a metric's bound is what its spread should stay under,
// so that a real regression of the bound's size stands out of the noise.
const steadyShare = 1.0 / 3

// noiseReport prints the table for the two result sets named in spec
// ("A.jsonl,B.jsonl") and returns 1 if any cell breaks its bound.
func noiseReport(spec string, stdout, stderr io.Writer) int {
	paths := strings.Split(spec, ",")
	if len(paths) != 2 {
		fmt.Fprintf(stderr, "bench: --report wants A.jsonl,B.jsonl\n")
		return 2
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintf(stderr, "bench: BENCHMARK.json: %v\n", err)
		return 2
	}
	a, err := readResults(paths[0])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readResults(paths[1])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "| workload | metric | unit | runs | median A | median B | B worse by | spread A | spread B | bound | verdict |\n")
	fmt.Fprintf(stdout, "|---|---|---|---|---|---|---|---|---|---|---|\n")
	broken, cells := 0, 0
	for _, w := range bf.Workloads {
		if len(a[w.Name]) == 0 && len(b[w.Name]) == 0 {
			continue // a self-test of some workloads only
		}
		for _, m := range bf.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(stderr, "bench: no runs of %s %s in one of the sets\n", w.Name, m.Name)
				return 2
			}
			cells++
			drift := worsening(median(va), median(vb), m.Better)
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case drift > m.Bound:
				verdict = "DRIFT"
			// The set-up time's spread is not held to the bound (it is a
			// median of three per run already); its drift is.
			case m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound):
				verdict = "SPREAD"
			case m.Name != "setup_s" && (sa > m.Bound*steadyShare || sb > m.Bound*steadyShare):
				verdict = "ok (spread above a third of the bound)"
			}
			if verdict == "DRIFT" || verdict == "SPREAD" {
				broken++
			}
			fmt.Fprintf(stdout, "| %s | %s | %s | %d+%d | %.4g | %.4g | %+.1f%% | %.1f%% | %.1f%% | %.0f%% | %s |\n",
				w.Name, m.Name, m.Unit, len(va), len(vb), median(va), median(vb), drift*100, sa*100, sb*100, m.Bound*100, verdict)
		}
	}
	if cells == 0 {
		fmt.Fprintf(stderr, "bench: the result sets hold no runs of any workload in BENCHMARK.json\n")
		return 2
	}
	if broken > 0 {
		fmt.Fprintf(stdout, "%d cell(s) outside their bound\n", broken)
		return 1
	}
	return 0
}
