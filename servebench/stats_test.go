package main

import (
	"testing"
	"time"
)

// The steadiness figures must match Python's statistics.quantiles(xs, n=4),
// which the acceptance check uses; the expected values are Python's.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, md, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
	}
	for _, c := range cases {
		q1, md, q3 := quartiles(c.xs)
		if q1 != c.q1 || md != c.md || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, md, q3, c.q1, c.md, c.q3)
		}
	}
}

func TestMeasureWindowKeepsQuietSlices(t *testing.T) {
	// Twelve completions, slices of two. Each takes one second, except
	// the third, which takes four while the hypervisor steals half of both
	// processors; the fleet burns one CPU tick per completion.
	ends := []float64{0.5, 1, 1.5, 2, 4, 6, 6.5, 7, 7.5, 8, 8.5, 9}
	var samples []sample
	for _, e := range ends {
		d := time.Duration(e * float64(time.Second))
		samples = append(samples, sample{start: d - 100*time.Millisecond, end: d})
	}
	var ticks []tick
	for sec := 0; sec <= 9; sec++ {
		steal := int64(0)
		if sec > 2 {
			steal = 2 * 50 * int64(min(sec, 6)-2)
		}
		cpu := int64(0)
		for _, e := range ends {
			if e <= float64(sec) {
				cpu++
			}
		}
		ticks = append(ticks, tick{at: time.Duration(sec) * time.Second, steal: steal, fleetCPU: cpu})
	}
	f, err := measureWindow(samples, 2, ticks, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f.slices != 6 || f.kept != 5 || f.samples != 10 {
		t.Fatalf("slices %d, kept %d, samples %d; want 6, 5, 10", f.slices, f.kept, f.samples)
	}
	if f.throughput != 2 || f.p50 != 100 || f.p95 != 100 || f.cpuPerQuery != 10 {
		t.Fatalf("figures %+v", f)
	}
	if _, err := measureWindow(samples[:5], 2, ticks, 2); err == nil {
		t.Fatal("two slices should be refused")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(xs, 0.5); p != 5 {
		t.Errorf("p50 = %v, want 5", p)
	}
	if p := percentile(xs, 0.95); p != 10 {
		t.Errorf("p95 = %v, want 10", p)
	}
}
