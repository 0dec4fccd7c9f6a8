package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 5000, want: 99, ok: true},
		{n: 1000, want: 99, ok: true}, // rank 990, 10 beyond
		{n: 999, want: 95, ok: true},  // p99 rank 990, only 9 beyond
		{n: 200, want: 95, ok: true},  // rank 190, 10 beyond
		{n: 199, want: 90, ok: true},
		{n: 100, want: 90, ok: true},
		{n: 99, want: 50, ok: true},
		{n: 20, want: 50, ok: true},
		{n: 19, ok: false},
		{n: 0, ok: false},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && c.n-nearestRank(got, c.n) < minBeyond {
			t.Errorf("tailPercentile(%d) = p%v leaves %d beyond", c.n, got, c.n-nearestRank(got, c.n))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 1; i <= 1000; i++ {
		xs = append(xs, float64(i))
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
// and statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0].
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 5})
	if q1 != 0 || q3 != 6 {
		t.Errorf("quartiles(1,5) = %v, %v; want 0, 6", q1, q3)
	}
}

var errRefused = errors.New("refused")
var errBroken = errors.New("broken")

func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	msd := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	var reqs []request
	// 30 answered requests: due at k ms, sent 2 ms late, answered 3 ms after
	// sending, so 5 ms from the due time.
	for k := 0; k < 30; k++ {
		due := msd(float64(k))
		reqs = append(reqs, request{due: due, sent: due + msd(2), done: due + msd(5), correct: true})
	}
	// A stall: the generator sent this one 40 ms late and it was answered
	// 1 ms later; latency from the due time is 41 ms, beyond the limit.
	reqs = append(reqs, request{due: msd(30), sent: msd(70), done: msd(71), correct: true})
	// A refusal, a failure and a wrong answer, all answered quickly.
	reqs = append(reqs,
		request{due: msd(31), sent: msd(31), done: msd(31.1), err: errRefused},
		request{due: msd(32), sent: msd(32), done: msd(32.1), err: errBroken},
		request{due: msd(33), sent: msd(33), done: msd(33.1), correct: false},
	)
	s := summarizeOpenLoop(reqs, msd(10), func(err error) bool { return errors.Is(err, errRefused) })
	if s.Sent != 34 || s.Answered != 31 || s.Refused != 1 || s.Failed != 1 || s.Wrong != 1 {
		t.Fatalf("counts = %+v", s)
	}
	if s.P50 != 5 || s.P90 != 5 {
		t.Errorf("p50, p90 = %v, %v ms, want 5 (timed from the due time, not the send time)", s.P50, s.P90)
	}
	if s.TailP != 50 {
		t.Errorf("tail percentile = p%v over 31 answered, want p50", s.TailP)
	}
	// 30 of 34 sent requests were answered correctly within 10 ms: the
	// stalled one missed, and the refused, failed and wrong ones count as
	// misses even though they came back fast.
	if want := 30.0 / 34; math.Abs(s.Attainment-want) > 1e-12 {
		t.Errorf("attainment = %v, want %v", s.Attainment, want)
	}
}
