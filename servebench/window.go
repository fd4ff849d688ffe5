package main

import (
	"fmt"
	"sort"
	"time"
)

// sliceStat is one slice of the measured window: a run of consecutive
// completions (by end time) that does the same work in every run.
type sliceStat struct {
	from, to   int // samples[from:to]
	start, end time.Duration
	// steal is the share of the machine's processor time the hypervisor
	// gave to other machines during the slice; cpu is the fleet's CPU
	// ticks during it.
	steal, cpu float64
}

// figures are the window's end-to-end figures.
type figures struct {
	throughput, p50, p95, p99, cpuPerQuery float64
	slices, kept, samples                  int
}

// measureWindow cuts the completions into slices of size and computes the
// figures over the quietest quarter of them (at least five): the slices
// in which the hypervisor took the least processor time from this machine.
// Neighbours on a shared host stall the machine in bursts; a burst then
// removes slices instead of moving the figure. Rates are the median over
// the kept slices, latencies and CPU per query cover their completions.
func measureWindow(samples []sample, size int, ticks []tick, nproc int) (figures, error) {
	n := len(samples) / size
	if n < 3 {
		return figures{}, fmt.Errorf("only %d completions, fewer than three slices of %d: lengthen --seconds", len(samples), size)
	}
	if len(ticks) < 2 {
		return figures{}, fmt.Errorf("too few processor-time samples")
	}
	stealOf := func(t tick) int64 { return t.steal }
	cpuOf := func(t tick) int64 { return t.fleetCPU }
	sl := make([]sliceStat, n)
	var prev time.Duration
	for k := range sl {
		end := samples[(k+1)*size-1].end
		s := sliceStat{from: k * size, to: (k + 1) * size, start: prev, end: end}
		s.steal = (at(ticks, end, stealOf) - at(ticks, prev, stealOf)) / clockTicks / (end - prev).Seconds() / float64(nproc)
		s.cpu = at(ticks, end, cpuOf) - at(ticks, prev, cpuOf)
		sl[k] = s
		prev = end
	}
	sort.SliceStable(sl, func(i, j int) bool { return sl[i].steal < sl[j].steal })
	kept := sl[:min(n, max((n+3)/4, 5))]

	f := figures{slices: n, kept: len(kept)}
	rates := make([]float64, len(kept))
	var lat []float64
	var cpu float64
	for i, s := range kept {
		rates[i] = float64(size) / (s.end - s.start).Seconds()
		for _, x := range samples[s.from:s.to] {
			lat = append(lat, float64(x.end-x.start)/1e6)
		}
		cpu += s.cpu
	}
	sort.Float64s(lat)
	f.samples = len(lat)
	f.throughput = median(rates)
	f.p50, f.p95, f.p99 = percentile(lat, 0.50), percentile(lat, 0.95), percentile(lat, 0.99)
	f.cpuPerQuery = cpu * 1000 / clockTicks / float64(len(lat))
	return f, nil
}

// at interpolates a tick counter at offset d.
func at(ts []tick, d time.Duration, get func(tick) int64) float64 {
	if d <= ts[0].at {
		return float64(get(ts[0]))
	}
	for i := 1; i < len(ts); i++ {
		if d <= ts[i].at {
			a, b := ts[i-1], ts[i]
			f := float64(d-a.at) / float64(b.at-a.at)
			return float64(get(a)) + f*float64(get(b)-get(a))
		}
	}
	return float64(get(ts[len(ts)-1]))
}
