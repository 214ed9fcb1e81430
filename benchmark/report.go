package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// value is one reported metric. A timing carries its sample count and,
// beside the headline value, the median and p95 of the same samples.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P95   float64 `json:"p95,omitempty"`
}

type metrics map[string]value

// result is one workload's outcome in the one schema every mode prints.
type result struct {
	Workload  string  `json:"workload"`
	StreamSHA string  `json:"stream_sha"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Correct   bool    `json:"correct"`
	EndToEnd  metrics `json:"end_to_end,omitempty"`
	PerLayer  metrics `json:"per_layer,omitempty"`
}

// quantile reads the q-quantile of sorted samples by the nearest-rank
// rule the repository's other reports use.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(len(sorted)-1, int(float64(len(sorted))*q))]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// durs converts durations to a sorted float slice in the given unit.
func durs(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	sort.Float64s(out)
	return out
}

// timing reports quantile q of sorted samples as the headline value
// with n, p50 and p95 alongside.
func timing(sorted []float64, q float64, unit string) value {
	return value{Value: quantile(sorted, q), Unit: unit, N: len(sorted),
		P50: quantile(sorted, 0.5), P95: quantile(sorted, 0.95)}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quartiles returns Q1, Q2, Q3 as Python's statistics.quantiles(xs, n=4)
// computes them (the exclusive method), the rule the acceptance check of
// this benchmark is stated in.
//
// Below four samples that rule extrapolates outside the data (two runs
// would read 1.5x their difference), so the quartiles are then the
// extremes: the spread is the whole range.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 4 {
		return s[0], (s[(n-1)/2] + s[n/2]) / 2, s[n-1]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// fill returns m with every metric of defs present: a metric the
// workload leaves undefined reads 0 in its declared unit.
func fill(m metrics, defs []metricDef) metrics {
	out := make(metrics, len(defs))
	for _, d := range defs {
		v := m[d.Name]
		v.Unit = d.Unit
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0
		}
		out[d.Name] = v
	}
	return out
}

// printTable writes one workload's metrics as an aligned table.
func printTable(w io.Writer, r result) {
	fmt.Fprintf(w, "\n== %s  stream_sha=%.12s  attempted=%d failed=%d correct=%v\n",
		r.Workload, r.StreamSHA, r.Attempted, r.Failed, r.Correct)
	fmt.Fprintf(w, "%-34s %14s %-6s %9s %12s %12s\n", "metric", "value", "unit", "n", "p50", "p95")
	for _, group := range []struct {
		defs []metricDef
		m    metrics
	}{{endToEnd, r.EndToEnd}, {perLayer, r.PerLayer}} {
		for _, d := range group.defs {
			v, ok := group.m[d.Name]
			if !ok {
				continue
			}
			line := fmt.Sprintf("%-34s %14.4f %-6s", d.Name, v.Value, v.Unit)
			if v.N > 0 {
				line += fmt.Sprintf(" %9d", v.N)
			}
			if v.P50 != 0 || v.P95 != 0 {
				line += fmt.Sprintf(" %12.4f %12.4f", v.P50, v.P95) // only timings carry these
			}
			fmt.Fprintln(w, line)
		}
	}
}
