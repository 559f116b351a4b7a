package main

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile for it
// to be reported: a p99 needs at least 1000 samples.
const minBeyond = 10

// failedNs marks a failed read in a latency sample: slower than any
// limit, so a failure can only push a percentile up.
const failedNs = math.MaxInt64

// quantile returns the q-quantile of sorted (nearest rank) and
// whether at least minBeyond samples lie beyond it.
func quantile(sorted []int64, q float64) (int64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	rank = max(0, min(rank, n-1))
	return sorted[rank], n-1-rank >= minBeyond
}

// reservoir keeps a uniform fixed-size sample of a stream (Algorithm
// R), so a run of millions of reads holds constant memory and the live
// heap it reports does not grow with throughput.
type reservoir struct {
	buf  []int64
	seen int64
	rng  *rand.Rand
}

func newReservoir(capacity int, seed uint64) *reservoir {
	return &reservoir{buf: make([]int64, 0, capacity), rng: rand.New(rand.NewPCG(seed, 0x5eed))}
}

// merge folds another reservoir's sample into r. The union stays a
// fair sample when both saw streams of similar length, as the readers
// of one closed loop do.
func (r *reservoir) merge(o *reservoir) {
	r.buf = append(r.buf, o.buf...)
	r.seen += o.seen
}

func (r *reservoir) add(v int64) {
	r.seen++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	if j := r.rng.Int64N(r.seen); j < int64(len(r.buf)) {
		r.buf[j] = v
	}
}

// latency summarizes a latency sample in microseconds.
type latency struct {
	Count  int64   `json:"count"`  // reads observed
	Sample int     `json:"sample"` // reads the percentiles are taken over
	P50us  float64 `json:"p50_us"`
	P99us  float64 `json:"p99_us"`
	// P99OK is false when fewer than minBeyond samples lie beyond the
	// 99th percentile, which a run then cannot report.
	P99OK bool `json:"p99_ok"`
}

func (r *reservoir) summary() latency {
	s := slices.Clone(r.buf)
	slices.Sort(s)
	p50, _ := quantile(s, 0.50)
	p99, ok := quantile(s, 0.99)
	return latency{Count: r.seen, Sample: len(s), P50us: usOf(p50), P99us: usOf(p99), P99OK: ok}
}

// round is one equal slice of an untraced run's timed phase, measured
// on its own: its completed reads, wall time, latency percentiles and
// the share of busy CPU time the hypervisor stole meanwhile.
type round struct {
	Reads int64   `json:"reads"`
	WallS float64 `json:"wall_s"`
	latency
	Steal float64 `json:"steal"` // -1 when /proc/stat is unreadable
}

func (r round) qps() float64 { return ratio(float64(r.Reads), r.WallS) }

// timeRounds runs a timed phase of length timed as n back-to-back
// rounds. run does one round's reads until its deadline and returns
// how many completed and their latency sample.
func timeRounds(n int, timed time.Duration, run func(deadline time.Time) (int64, *reservoir)) []round {
	start := time.Now()
	out := make([]round, 0, n)
	for i := range n {
		steal := startSteal()
		t0 := time.Now()
		done, lat := run(start.Add(timed * time.Duration(i+1) / time.Duration(n)))
		out = append(out, round{Reads: done, WallS: time.Since(t0).Seconds(), latency: lat.summary(), Steal: steal.share()})
	}
	return out
}

// stealCeiling is the largest share of busy CPU time the hypervisor
// may steal during a round, a set-up or a write cycle for it to count.
// On the reference machine the HTTP tail follows steal closely: over
// fifty 3-second rounds of cluster-read, p99 was 441–634 µs in the
// rounds under 1% steal and 711–1886 µs in those at 6–15%.
const stealCeiling = 0.04

// steady returns the items whose steal share stayed at or below
// stealCeiling or, when fewer than half did, the quietest half, with
// noisy set. Unknown steal (-1) counts as quiet. A noisy item is left
// out rather than averaged in, so that a burst of steal cannot move
// the median taken over the rest.
func steady[T any](xs []T, steal func(T) float64) (kept []T, noisy bool) {
	kept = slices.DeleteFunc(slices.Clone(xs), func(x T) bool { return steal(x) > stealCeiling })
	if 2*len(kept) >= len(xs) {
		return kept, false
	}
	kept = slices.Clone(xs)
	slices.SortStableFunc(kept, func(a, b T) int { return cmp.Compare(steal(a), steal(b)) })
	return kept[:(len(kept)+1)/2], true
}

// timing is one timed piece of work — a set-up or a write cycle — and
// the share of busy CPU time stolen while it ran.
type timing struct {
	S     float64 `json:"s"`
	Steal float64 `json:"steal"`
}

// steadyMedian is the median of the steady timings.
func steadyMedian(ts []timing) float64 {
	kept, _ := steady(ts, func(t timing) float64 { return t.Steal })
	xs := make([]float64, len(kept))
	for i, t := range kept {
		xs[i] = t.S
	}
	return median(xs)
}

// readFigures are a run's end-to-end read metrics: medians over its
// steady rounds.
type readFigures struct {
	latency
	QPS    float64 `json:"qps"`
	Rounds int     `json:"rounds"`
	Kept   int     `json:"kept"`
	// Noisy is set when fewer than half of the rounds stayed under
	// stealCeiling; the figures then come from the quietest half, and
	// compare mode leaves the run out.
	Noisy bool `json:"noisy"`
}

// summarize takes the medians of qps, p50 and p99 over the steady
// rounds.
func summarize(rs []round) readFigures {
	kept, noisy := steady(rs, func(r round) float64 { return r.Steal })
	f := readFigures{Rounds: len(rs), Kept: len(kept), Noisy: noisy}
	f.P99OK = len(kept) > 0
	var qps, p50, p99 []float64
	for _, r := range rs {
		f.Count += r.Count
	}
	for _, r := range kept {
		qps, p50, p99 = append(qps, r.qps()), append(p50, r.P50us), append(p99, r.P99us)
		f.Sample += r.Sample
		f.P99OK = f.P99OK && r.P99OK
	}
	f.QPS, f.P50us, f.P99us = median(qps), median(p50), median(p99)
	return f
}

// p50 returns the sample median in the sample's own unit.
func (r *reservoir) p50() float64 {
	s := slices.Clone(r.buf)
	slices.Sort(s)
	v, _ := quantile(s, 0.50)
	return float64(v)
}

func usOf(ns int64) float64 { return float64(ns) / 1e3 }

// ratio is a ÷ b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median returns the median of xs (mean of the middle two for an even
// count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the three cut points of xs by the rule of
// Python's statistics.quantiles(xs, n=4) (the default exclusive
// method), so spreads printed here match the ones a reader computes
// from the same values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
