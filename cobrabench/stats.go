package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is noise.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of samples
// and the number of samples strictly above its rank. ok is false when
// fewer than minBeyond samples lie beyond it (the median of a non-empty
// sample is always reported).
func percentile(samples []float64, p float64) (v float64, beyond int, ok bool) {
	if len(samples) == 0 {
		return 0, 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	beyond = len(s) - 1 - rank
	return s[rank], beyond, p <= 0.5 || beyond >= minBeyond
}

// median is the nearest-rank median, 0 for no samples.
func median(samples []float64) float64 {
	v, _, _ := percentile(samples, 0.5)
	return v
}

// geomeanRatio is the geometric mean of num[i]/den[i]. Pairs with a
// non-positive side are invalid input.
func geomeanRatio(num, den []float64) (float64, error) {
	if len(num) != len(den) || len(num) == 0 {
		return 0, fmt.Errorf("geomean over %d/%d values", len(num), len(den))
	}
	sum := 0.0
	for i := range num {
		if num[i] <= 0 || den[i] <= 0 {
			return 0, fmt.Errorf("geomean pair %d: %v/%v not positive", i, num[i], den[i])
		}
		sum += math.Log(num[i] / den[i])
	}
	return math.Exp(sum / float64(len(num))), nil
}

// accounting is the outcome count of one closed-loop run. Every attempted
// session ends in exactly one of the four outcomes.
type accounting struct {
	Attempted, Completed, Failed, Refused, Cancelled int
}

func (a *accounting) record(o outcome) {
	a.Attempted++
	switch o {
	case outcomeDone:
		a.Completed++
	case outcomeFailed:
		a.Failed++
	case outcomeRefused:
		a.Refused++
	case outcomeCancelled:
		a.Cancelled++
	default:
		panic(fmt.Sprintf("unknown outcome %d", o))
	}
}

// balanced reports whether the outcomes account for every attempt.
func (a accounting) balanced() bool {
	return a.Attempted == a.Completed+a.Failed+a.Refused+a.Cancelled
}

// unsuccessful is the count the failed field of the result reports.
func (a accounting) unsuccessful() int { return a.Failed + a.Refused + a.Cancelled }

type outcome int

const (
	outcomeDone outcome = iota
	outcomeFailed
	outcomeRefused
	outcomeCancelled
)
