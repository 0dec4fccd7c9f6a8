package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a tail percentile resting on fewer samples is mostly noise.
const minBeyond = 10

// tailLadder lists the percentiles a tail figure is chosen from, highest
// first.
var tailLadder = []float64{99, 95, 90, 50}

// nearestRank returns the 1-based rank of the p-th percentile of n sorted
// samples under the nearest-rank rule, clamped to [1, n].
func nearestRank(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile returns the highest percentile of tailLadder that has at
// least minBeyond of n samples above its nearest rank. ok is false when
// even the median lacks that support.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n-nearestRank(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank p-th percentile of sorted samples
// (0 when there are none).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(p, len(sorted))-1]
}

// sortedCopy returns xs in ascending order without modifying xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the middle two for an
// even count; 0 when xs is empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the first and third quartiles of xs by the same rule as
// Python's statistics.quantiles(xs, n=4) (method "exclusive"), which is how
// run-to-run spread is judged. Both are xs[0] when there are fewer than two
// values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	// statistics.quantiles, method "exclusive", for cut point i of 4.
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// request is one open-loop request as the generator saw it: when it was
// due, when the generator actually sent it, when its answer (or error)
// came back, and whether the answer matched the serial reference.
type request struct {
	due, sent, done time.Duration // offsets from the window start
	err             error
	correct         bool
}

// openLoopSummary is what an open-loop window reports.
type openLoopSummary struct {
	Sent, Answered, Refused, Failed, Wrong int
	// P50, P90 and Tail are latencies of answered requests in ms, timed
	// from each request's due time; TailP names the percentile Tail is (99
	// once a thousand requests were answered).
	P50, P90, Tail float64
	TailP          float64
	// Attainment is the share of sent requests answered correctly within
	// the limit; refused, failed and wrong answers all count as misses.
	Attainment float64
	// GenLateTail is how late the generator sent requests, in ms, at
	// TailP over all sent requests.
	GenLateTail float64
}

// summarizeOpenLoop folds an open-loop window's requests into its summary.
// refused reports whether an error is an admission refusal (as opposed to
// a failure of an admitted request).
func summarizeOpenLoop(reqs []request, limit time.Duration, refused func(error) bool) openLoopSummary {
	sum := openLoopSummary{Sent: len(reqs)}
	var lat, late []float64
	hits := 0
	for _, r := range reqs {
		late = append(late, ms(r.sent-r.due))
		switch {
		case r.err != nil && refused(r.err):
			sum.Refused++
			continue
		case r.err != nil:
			sum.Failed++
			continue
		case !r.correct:
			sum.Wrong++
			continue
		}
		sum.Answered++
		d := r.done - r.due
		lat = append(lat, ms(d))
		if d <= limit {
			hits++
		}
	}
	if sum.Sent > 0 {
		sum.Attainment = float64(hits) / float64(sum.Sent)
	}
	lat = sortedCopy(lat)
	sum.P50 = percentile(lat, 50)
	sum.P90 = percentile(lat, 90)
	if p, ok := tailPercentile(len(lat)); ok {
		sum.TailP = p
		sum.Tail = percentile(lat, p)
		sum.GenLateTail = percentile(sortedCopy(late), p)
	}
	return sum
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
