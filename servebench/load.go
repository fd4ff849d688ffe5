package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one request of the closed loop.
type sample struct {
	pos        int // stream position (cycled)
	start, end time.Duration
	status     int
	body       []byte
	err        error
}

// client is the load generator's HTTP side: keep-alive connections to one
// server, at most conns of them.
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string, conns int) *client {
	return &client{url: url, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// send posts one query and reads the whole response.
func (c *client) send(ctx context.Context, text string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewBufferString(text))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// drive runs a closed loop of conns clients over the workload's stream,
// starting at stream position from, until n requests have been sent (n > 0)
// or until the deadline passes (n == 0). Times are offsets from origin.
func drive(ctx context.Context, c *client, w *workload, conns, from, n int, deadline, origin time.Time) []sample {
	var next atomic.Int64
	next.Store(int64(from))
	per := make([][]sample, conns)
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for ctx.Err() == nil {
				pos := int(next.Add(1) - 1)
				if n > 0 && pos >= from+n || n == 0 && time.Now().After(deadline) {
					return
				}
				q := w.distinct[w.stream[pos%len(w.stream)]]
				s := sample{pos: pos, start: time.Since(origin)}
				s.status, s.body, s.err = c.send(ctx, q.text)
				s.end = time.Since(origin)
				per[k] = append(per[k], s)
			}
		}(k)
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].end < all[j].end })
	return all
}

// firstAnswer sends the workload's probe query until a complete, correct
// answer arrives, and returns when it did. Connection errors while a server
// is still coming up are retried; a wrong answer is not.
func firstAnswer(ctx context.Context, c *client, w *workload, chk *checker, limit time.Duration) error {
	i := w.probe
	stop := time.Now().Add(limit)
	for {
		status, body, err := c.send(ctx, w.distinct[i].text)
		if err == nil && status == http.StatusOK {
			_, cerr := chk.check(i, status, body)
			if cerr == nil {
				return nil
			}
			if !isPartial(body) {
				return fmt.Errorf("first answer: %v", cerr)
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(stop) {
			return fmt.Errorf("no complete answer within %v (last: status %d, err %v)", limit, status, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func isPartial(body []byte) bool { return bytes.Contains(body, []byte(`"partial":true`)) }

// tick is one sample of the machine's steal time and the fleet's CPU
// time, both in clock ticks, at an offset from the window's origin.
type tick struct {
	at              time.Duration
	steal, fleetCPU int64
}

// sampleTicks samples steal and fleet CPU every interval until stop is
// closed, then returns the samples.
func sampleTicks(fl *fleet, origin time.Time, interval time.Duration, stop <-chan struct{}) []tick {
	var out []tick
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		steal, err1 := stealTicks()
		cpu, err2 := fl.cpuTicks()
		if err1 == nil && err2 == nil {
			out = append(out, tick{time.Since(origin), steal, cpu})
		}
		select {
		case <-stop:
			return out
		case <-t.C:
		}
	}
}

// stealTicks reads the machine-wide steal time from /proc/stat: time the
// hypervisor ran something else while this machine's processors were
// ready to run.
func stealTicks() (int64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	return strconv.ParseInt(f[8], 10, 64)
}
