package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat (100 on every mainstream Linux configuration).
const clockTicks = 100

// server is one running netout process.
type server struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has been waited for
}

// fleet is the set of netout processes one workload runs: the shard
// servers (if any) and the process that answers HTTP queries.
type fleet struct {
	procs []*server
	url   string
}

// startServer spawns netout with args and waits for the banner line that
// carries its listen address. The process writes stdout to a pipe the
// banner is read from and stderr to logPath.
func startServer(ctx context.Context, bin, logPath string, args []string, banner string) (*server, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	// The kernel kills the server if the benchmark dies before stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, banner); i >= 0 {
				f := strings.Fields(line[i+len(banner):])
				if len(f) > 0 {
					select {
					case addrc <- strings.TrimSuffix(strings.TrimPrefix(f[0], "http://"), "/query"):
					default:
					}
				}
			}
		}
		io.Copy(io.Discard, out)
		cmd.Wait()
		close(s.done)
	}()
	select {
	case s.addr = <-addrc:
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("%s exited before listening; see %s", filepath.Base(bin), logPath)
	case <-ctx.Done():
		s.stop()
		return nil, ctx.Err()
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, fmt.Errorf("%s did not start listening within 60s; see %s", filepath.Base(bin), logPath)
	}
}

// stop kills the process and waits until it has exited.
func (s *server) stop() {
	s.cmd.Process.Kill()
	<-s.done
}

// startFleet spawns the workload's processes over the network file: shard
// servers first (their addresses go to the coordinator), then the HTTP
// front end. Every listen address is an ephemeral loopback port.
func startFleet(ctx context.Context, bin, dir string, w *workload, netPath, queryPath string) (*fleet, error) {
	f := &fleet{}
	var shardAddrs []string
	for i := 0; i < w.shards; i++ {
		s, err := startServer(ctx, bin, filepath.Join(dir, fmt.Sprintf("shard%d.log", i)), []string{
			"-net", netPath, "-shard-serve", "-shard-listen", "127.0.0.1:0",
			"-strategy", "spm", "-file", queryPath,
		}, "shard server on ")
		if err != nil {
			f.stop()
			return nil, err
		}
		f.procs = append(f.procs, s)
		shardAddrs = append(shardAddrs, s.addr)
	}
	args := []string{"-net", netPath, "-serve", "127.0.0.1:0", "-measure", w.measure,
		"-workers", strconv.Itoa(w.conns)}
	switch {
	case w.shards > 0:
		args = append(args, "-shard-addrs", strings.Join(shardAddrs, ","))
	case w.cacheMB > 0:
		args = append(args, "-strategy", "cached", "-subpath-cache", "-cache-mb", strconv.Itoa(w.cacheMB))
	default:
		args = append(args, "-strategy", "baseline", "-parallelism", "2")
	}
	s, err := startServer(ctx, bin, filepath.Join(dir, "serve.log"), args, "serving queries on ")
	if err != nil {
		f.stop()
		return nil, err
	}
	f.procs = append(f.procs, s)
	f.url = "http://" + s.addr + "/query"
	return f, nil
}

// stop kills every process of the fleet and waits for each.
func (f *fleet) stop() {
	for _, s := range f.procs {
		s.stop()
	}
	f.procs = nil
}

// cpuTicks sums user+system CPU ticks over the fleet's processes.
func (f *fleet) cpuTicks() (int64, error) {
	var total int64
	for _, s := range f.procs {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name; utime and stime are
		// fields 14 and 15 of the whole line.
		rest := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
		if len(rest) < 13 {
			return 0, fmt.Errorf("short /proc stat line")
		}
		for _, field := range rest[11:13] {
			n, err := strconv.ParseInt(field, 10, 64)
			if err != nil {
				return 0, err
			}
			total += n
		}
	}
	return total, nil
}

// peakRSSMB sums VmHWM (peak resident set) over the fleet's processes.
func (f *fleet) peakRSSMB() (float64, error) {
	var kb int64
	for _, s := range f.procs {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "VmHWM:") {
				f := strings.Fields(line)
				n, err := strconv.ParseInt(f[1], 10, 64)
				if err != nil {
					return 0, err
				}
				kb += n
			}
		}
	}
	return float64(kb) / 1024, nil
}
