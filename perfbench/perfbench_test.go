package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// tinySizes runs every workload end to end on small topologies, enough
// for each gate to pass and each metric to exist in a two-second run;
// each of its two rounds holds the thousand reads a p99 needs, even
// under the race detector.
var tinySizes = sizes{
	walkN:        96,
	shardN:       96,
	setupReps:    1,
	queries:      2048,
	stretchPairs: 256,
	checkPairs:   32,
	warmup:       50 * time.Millisecond,
	rounds:       2,
	batch:        4,
	writes:       1,
	window:       128,
}

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	if v, ok := quantile(s, 0.99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %d ok=%v, want 990 with exactly ten beyond", v, ok)
	}
	if v, ok := quantile(s[:999], 0.99); v != 990 || ok {
		t.Errorf("p99 of 1..999 = %d ok=%v, want 990 flagged: only nine beyond", v, ok)
	}
	if v, ok := quantile(s[:21], 0.5); v != 11 || !ok {
		t.Errorf("p50 of 1..21 = %d ok=%v, want 11", v, ok)
	}
	if _, ok := quantile(nil, 0.5); ok {
		t.Error("quantile of no samples reported ok")
	}
	// A failed read counts as slower than any limit: eleven failures
	// in a thousand reads put the p99 on a failure.
	for i := range 11 {
		s[i] = failedNs
	}
	slices.Sort(s)
	if v, _ := quantile(s, 0.99); v != failedNs {
		t.Errorf("p99 with eleven failures in 1000 = %d, want a failure", v)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{3, 1, 2, 5}, [3]float64{1.25, 2.5, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{0.5, 0.7, 0.1, 0.9, 2.0, 1.1, 1.3}, [3]float64{0.5, 0.9, 1.3}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
}

func TestReservoirKeepsFixedSample(t *testing.T) {
	r := newReservoir(100, 1)
	for i := range 10000 {
		r.add(int64(i))
	}
	if len(r.buf) != 100 || r.seen != 10000 {
		t.Fatalf("reservoir holds %d of %d seen, want 100 of 10000", len(r.buf), r.seen)
	}
	if p := r.p50(); p < 3000 || p > 7000 {
		t.Errorf("sampled median %v far from the stream's 5000", p)
	}
}

func TestSummarizeLeavesOutStolenRounds(t *testing.T) {
	rd := func(qps, p99, steal float64) round {
		return round{Reads: int64(qps), WallS: 1, latency: latency{Count: int64(qps), Sample: 100, P50us: 1e6 / qps, P99us: p99, P99OK: true}, Steal: steal}
	}
	// Two of five rounds lost a fifth of their CPU to the hypervisor
	// and ran slow; the figures come from the three quiet ones.
	f := summarize([]round{rd(1000, 10, 0.01), rd(400, 90, 0.2), rd(1100, 11, 0), rd(300, 80, 0.3), rd(900, 12, 0.02)})
	if f.Noisy || f.Kept != 3 || f.Rounds != 5 {
		t.Fatalf("kept %d of %d noisy=%v, want 3 of 5 and not noisy", f.Kept, f.Rounds, f.Noisy)
	}
	if f.QPS != 1000 || f.P99us != 11 || f.Count != 3700 || f.Sample != 300 || !f.P99OK {
		t.Errorf("figures %+v, want qps 1000, p99 11, 3700 reads, 300 sampled", f)
	}
	// Most rounds over the ceiling: the quietest half is used and the
	// run is flagged.
	f = summarize([]round{rd(500, 50, 0.3), rd(400, 90, 0.2), rd(1000, 10, 0.05), rd(300, 80, 0.4)})
	if !f.Noisy || f.Kept != 2 || f.QPS != 700 {
		t.Errorf("noisy run: kept %d noisy=%v qps %v, want the two quietest (qps 700) flagged noisy", f.Kept, f.Noisy, f.QPS)
	}
	// Unknown steal (no /proc/stat) counts as quiet.
	if f = summarize([]round{rd(1000, 10, -1), rd(1000, 10, -1)}); f.Noisy || f.Kept != 2 {
		t.Errorf("unknown steal: kept %d noisy=%v, want both kept", f.Kept, f.Noisy)
	}
}

func TestParseProcStat(t *testing.T) {
	const a = "cpu  100 5 50 1000 20 3 2 40 7 0\ncpu0 50 2 25 500 10 1 1 20 3 0\nintr 12345\n"
	const b = "cpu  190 5 80 1900 20 3 2 60 9 0\n"
	ta, err := parseProcStat(strings.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if ta.busy != 100+5+50+3+2+40 || ta.steal != 40 {
		t.Errorf("parsed %+v, want busy 200 steal 40 (guest and idle excluded)", ta)
	}
	tb, err := parseProcStat(strings.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	// 20 of the 140 busy ticks in between were stolen.
	if got := stealShare(ta, tb); math.Abs(got-20.0/140) > 1e-12 {
		t.Errorf("steal share %v, want %v", got, 20.0/140)
	}
	if got := stealShare(tb, tb); got != -1 {
		t.Errorf("steal share with no busy time = %v, want -1", got)
	}
	for _, bad := range []string{"intr 1\n", "cpu 1 2 3\n", "cpu a b c d e f g h\n"} {
		if _, err := parseProcStat(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProcStat(%q) accepted a malformed line", bad)
		}
	}
}

// lastLine decodes the contract line of a run's output.
func lastLine(t *testing.T, out string) contractLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var c contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return c
}

func TestTinyRunsPassTheirGates(t *testing.T) {
	if testing.Short() {
		t.Skip("serves real loopback HTTP")
	}
	for _, wl := range order {
		for _, traced := range []bool{false, true} {
			c := runConfig{seed: 3, timed: 2 * time.Second, traced: traced, sizes: tinySizes}
			res, err := workloads[wl](context.Background(), c)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			if !res.Correct {
				t.Fatalf("%s traced=%v failed its gate: %v", wl, traced, res.Gate)
			}
			var out bytes.Buffer
			if err := report(&out, res); err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			line := lastLine(t, out.String())
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v reported %d metrics, want %d", wl, traced, len(line.Metrics), len(want))
			}
			for _, d := range want {
				v, ok := line.Metrics[d.name]
				if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: %s = %+v", wl, traced, d.name, v)
				}
			}
			if line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d", wl, traced, line.Attempted, line.Failed)
			}
			if !traced {
				for _, d := range endToEnd {
					if line.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", wl, d.name, line.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

func TestFailedGateExitsNonzeroWithoutNumbers(t *testing.T) {
	workloads["broken"] = func(_ context.Context, c runConfig) (*result, error) {
		r := newResult("broken", c)
		r.Attempted, r.Failed = 10, 1
		r.Metrics["setup_s"] = 1
		r.fail("read 1→2: not delivered")
		return r, nil
	}
	defer delete(workloads, "broken")
	var out, errOut bytes.Buffer
	if code := runMain([]string{"--workload", "broken", "--seconds", "1"}, &out, &errOut); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	line := lastLine(t, out.String())
	if line.Correct || len(line.Metrics) != 0 || line.Attempted != 10 || line.Failed != 1 {
		t.Errorf("contract line %+v, want correct=false with no metrics", line)
	}
	if code := runMain([]string{"--workload", "nope"}, &out, &errOut); code != 2 {
		t.Errorf("unknown workload exit code %d, want 2", code)
	}
}

func TestBenchmarkJSONMatchesTheMetricLists(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
}

func TestCompareJudgesAgainstBounds(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, tc := range []struct {
		name   string
		change []float64
		better string
		bound  float64
		want   string
		bad    bool
	}{
		{"same", base, "lower", 0.1, "within bound", false},
		{"slower", scale(base, 1.2), "lower", 0.1, "REGRESSED", true},
		{"faster", scale(base, 0.8), "lower", 0.1, "improved", false},
		{"higher is better", scale(base, 0.8), "higher", 0.1, "REGRESSED", true},
		{"noisy", []float64{50, 150, 80, 120, 100, 60, 140, 100, 90, 110}, "lower", 0.1, "unresolved", false},
		{"noisy but better every run", []float64{10, 40, 20, 30, 25, 15, 35, 25, 22, 28}, "lower", 0.1, "better in every run", false},
	} {
		verdict, bad := judge(base, tc.change, tc.better, tc.bound)
		if !strings.HasPrefix(verdict, tc.want) || bad != tc.bad {
			t.Errorf("%s: verdict %q regressed=%v, want %q regressed=%v", tc.name, verdict, bad, tc.want, tc.bad)
		}
	}
}

func TestCompareReadsRunOutputs(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, qps float64, traced, noisy bool) {
		r := &result{Workload: "walk", Traced: traced, Correct: true, Reads: readFigures{Noisy: noisy},
			Metrics: map[string]float64{"route_qps": qps, "sim.walk_us_p50": 1e6 / qps}}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		for _, d := range defs {
			if _, ok := r.Metrics[d.name]; !ok {
				r.Metrics[d.name] = 1
			}
		}
		var out bytes.Buffer
		if err := report(&out, r); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dir+"/"+name, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, side := range []string{"base", "change"} {
		if err := os.Mkdir(dir+"/"+side, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for i := range 5 {
		write("base/"+string(rune('a'+i)), 1000+float64(i), false, false)
		write("change/"+string(rune('a'+i)), 700+float64(i), false, false)
	}
	// Noisy runs are left out: counted in, these would move both
	// medians and hide the loss.
	write("base/noisy", 100, false, true)
	write("change/noisy", 5000, false, true)
	write("base/traced", 1000, true, false)
	write("change/traced", 700, true, false)
	base, err := loadRecords(dir + "/base")
	if err != nil {
		t.Fatal(err)
	}
	change, err := loadRecords(dir + "/change")
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 6 || len(change) != 6 {
		t.Fatalf("read %d base and %d change records, want 6 each (the noisy run left out)", len(base), len(change))
	}
	spec := benchSpec{EndToEnd: []boundDef{{Name: "route_qps", Unit: "routes/s", Better: "higher", Bound: 0.1}}}
	var out bytes.Buffer
	if !compare(&out, spec, base, change) {
		t.Fatalf("compare found no regression in a 30%% throughput loss:\n%s", out.String())
	}
	for _, want := range []string{"route_qps", "REGRESSED", "sim.walk_us_p50", "+42.9%"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
