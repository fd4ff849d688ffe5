package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"netout"
	"netout/internal/core"
	"netout/internal/shardnet"
	"netout/servebench/oracle"
)

// replayLen is how many stream queries the traced run replays: enough for
// stable per-query means, few enough that the four in-process passes and
// the HTTP pass stay within a minute.
func replayLen(w *workload) int {
	if w.name == "interactive" {
		return 2000
	}
	return 4 * len(w.distinct)
}

// timedMat wraps the engine's Materializer and times every call. It is
// used single-threaded only (the traced engine runs sequentially).
type timedMat struct {
	netout.Materializer
	spent time.Duration
	calls int64
}

func (t *timedMat) NeighborVector(p netout.MetaPath, v netout.VertexID) (netout.Vector, error) {
	start := time.Now()
	vec, err := t.Materializer.NeighborVector(p, v)
	t.spent += time.Since(start)
	t.calls++
	return vec, err
}

// shardCall is one captured coordinator→shard exchange.
type shardCall struct {
	shard      int
	req        *netout.ShardRequest
	bcast      *netout.ShardBroadcast
	resp       *netout.ShardResponse
	start, end time.Time
}

// timedShard wraps a remote shard client and captures every call. The
// coordinator calls shards concurrently, hence the lock.
type timedShard struct {
	netout.RemoteShard
	shard int
	log   *callLog
}

type callLog struct {
	mu    sync.Mutex
	calls []shardCall
}

func (l *callLog) take() []shardCall {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.calls
	l.calls = nil
	return c
}

func (t *timedShard) Call(ctx context.Context, req *netout.ShardRequest, b *netout.ShardBroadcast) (*netout.ShardResponse, error) {
	start := time.Now()
	resp, err := t.RemoteShard.Call(ctx, req, b)
	end := time.Now()
	if err == nil {
		t.log.mu.Lock()
		t.log.calls = append(t.log.calls, shardCall{t.shard, req, b, resp, start, end})
		t.log.mu.Unlock()
	}
	return resp, err
}

// waitSink collects the queue wait the pool stamps on each wide event.
type waitSink struct {
	mu    sync.Mutex
	sumUs int64
	n     int64
}

func (s *waitSink) Emit(ev *netout.QueryEvent) {
	s.mu.Lock()
	s.sumUs += ev.QueueWaitUs
	s.n++
	s.mu.Unlock()
}

// layers accumulates per-layer totals over the replay; metrics divides by
// the query count.
type layers struct {
	parse, validate, evalset, execute, matLocal, matShard, score, scatterWall time.Duration
	shardCall, reduceMerge, encode, decode, wire                              time.Duration
	matVectors, shardVectors                                                  int64
	candidates, references, pairs, nonzeroPairs                               int64
	kernMerge, kernDense, kernMap                                             int64
	shardCalls, reqBytes, respBytes                                           int64
}

// shardFleet is the traced run's in-process shard tier: real shardnet
// servers on loopback, each over its own SPM index, and the clients the
// coordinator dials.
type shardFleet struct {
	mats    []netout.Materializer
	servers []*shardnet.Server
	clients []*shardnet.Client
	reg     *netout.MetricsRegistry
	wg      sync.WaitGroup
}

func startShardFleet(g *netout.Graph, w *workload, n int) (*shardFleet, time.Duration, error) {
	sf := &shardFleet{reg: netout.NewMetricsRegistry()}
	var build time.Duration
	texts := make([]string, len(w.distinct))
	for i, q := range w.distinct {
		texts[i] = q.text
	}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		mat, err := netout.NewSPM(g, texts, netout.SPMConfig{Threshold: 0.01})
		if err != nil {
			sf.close()
			return nil, 0, err
		}
		build += time.Since(t0)
		srv, err := shardnet.NewServer(g, mat, shardnet.ServerOptions{Workers: 1})
		if err != nil {
			sf.close()
			return nil, 0, err
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			sf.close()
			return nil, 0, err
		}
		sf.mats = append(sf.mats, mat)
		sf.servers = append(sf.servers, srv)
		sf.wg.Add(1)
		go func() {
			defer sf.wg.Done()
			srv.Serve(lis)
		}()
		sf.clients = append(sf.clients, shardnet.Dial(lis.Addr().String(), shardnet.ClientOptions{Obs: sf.reg}))
	}
	return sf, build, nil
}

// remotes returns the clients as RemoteShards, wrapped for capture when
// log is non-nil.
func (sf *shardFleet) remotes(log *callLog) []netout.RemoteShard {
	var out []netout.RemoteShard
	for i, c := range sf.clients {
		if log != nil {
			out = append(out, &timedShard{RemoteShard: c, shard: i, log: log})
		} else {
			out = append(out, c)
		}
	}
	return out
}

func (sf *shardFleet) retries() int64 {
	var n int64
	for _, c := range sf.clients {
		n += sf.reg.Counter(`netout_shard_rpc_retries_total{addr="`+c.Addr()+`"}`, "").Value()
	}
	return n
}

func (sf *shardFleet) close() {
	for _, c := range sf.clients {
		c.Close()
	}
	for _, s := range sf.servers {
		s.Close()
	}
	sf.wg.Wait()
}

// runTraced replays the stream through each layer's public function and
// reports the per-layer metrics. End-to-end figures are never taken from
// this run.
func runTraced(ctx context.Context, in *inputs) (*result, error) {
	w := in.w
	n := replayLen(w)
	if n > len(w.stream) {
		n = len(w.stream)
	}
	res := &result{Correct: true}
	fail := func(i int, err error) {
		if res.Failed < 5 {
			fmt.Fprintf(os.Stderr, "servebench: query %q: %v\n", w.distinct[i].text, err)
		}
		res.Failed++
	}

	// HTTP layer: the real server, one connection, residual = client
	// latency minus the engine time the response reports.
	httpResidual, err := tracedHTTP(ctx, in, n, &res.Attempted, fail)
	if err != nil {
		return nil, err
	}

	// Set-up layers, in process.
	t0 := time.Now()
	g, err := netout.LoadGraph(in.netPath)
	if err != nil {
		return nil, err
	}
	loadS := time.Since(t0).Seconds()
	measure, err := netout.ParseMeasure(w.measure)
	if err != nil {
		return nil, err
	}
	newMat := func() (netout.Materializer, error) {
		if w.cacheMB > 0 {
			return netout.NewCached(g, int64(w.cacheMB)<<20, netout.WithSubpathCache(), netout.WithCachePlanner(true))
		}
		return netout.NewBaseline(g), nil
	}
	t0 = time.Now()
	if _, err := newMat(); err != nil {
		return nil, err
	}
	indexBuild := time.Since(t0)
	var sf *shardFleet
	var indexMB float64
	if w.shards > 0 {
		var build time.Duration
		if sf, build, err = startShardFleet(g, w, w.shards); err != nil {
			return nil, err
		}
		defer sf.close()
		indexBuild += build
		for _, m := range sf.mats {
			indexMB += float64(m.IndexBytes()) / 1e6
		}
	}
	engine := func(mat netout.Materializer, log *callLog, observed bool) *netout.Engine {
		opts := []netout.EngineOption{netout.WithMeasure(measure), netout.WithMaterializer(mat), netout.WithQueryParallelism(1)}
		if sf != nil {
			opts = append(opts, netout.WithRemoteShards(sf.remotes(log)...))
		}
		if observed {
			// What serve mode attaches: the registry, slow log, event ring
			// and in-flight table.
			opts = append(opts, netout.WithObs(netout.NewMetricsRegistry(), netout.NewSlowLog(16)),
				netout.WithEventSink(netout.NewEventRing(0)), netout.WithInflight(netout.NewInflight()))
		}
		return netout.NewEngine(g, opts...)
	}
	check := func(i int, r *netout.Result, err error) {
		res.Attempted++
		if err == nil {
			err = in.chk.checkResult(i, r)
		}
		if err != nil {
			fail(i, err)
		}
	}

	// Pass 1 counts allocations on an untraced engine and warms the process
	// up. Pass 2 then interleaves, query by query and in rotating order, an
	// untraced engine, one with serve-mode observability and the traced
	// one, each over its own materializer: all three see the same cache
	// evolution and the same stretches of machine noise, so their
	// differences are the overheads.
	var m0, m1 runtime.MemStats
	{
		mat, err := newMat()
		if err != nil {
			return nil, err
		}
		eng := engine(mat, nil, false)
		results := make([]*netout.Result, n)
		errs := make([]error, n)
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for p := 0; p < n && ctx.Err() == nil; p++ {
			results[p], errs[p] = eng.Execute(w.distinct[w.stream[p]].text)
		}
		runtime.ReadMemStats(&m1)
		eng.Close()
		for p := 0; p < n && ctx.Err() == nil; p++ {
			check(w.stream[p], results[p], errs[p])
		}
	}
	var plain, observed time.Duration
	timed := func(observe bool, total *time.Duration) (func(i int) error, func(), error) {
		mat, err := newMat()
		if err != nil {
			return nil, nil, err
		}
		eng := engine(mat, nil, observe)
		return func(i int) error {
			start := time.Now()
			r, err := eng.Execute(w.distinct[i].text)
			*total += time.Since(start)
			check(i, r, err)
			return nil
		}, eng.Close, nil
	}
	runPlain, closePlain, err := timed(false, &plain)
	if err != nil {
		return nil, err
	}
	defer closePlain()
	runObserved, closeObserved, err := timed(true, &observed)
	if err != nil {
		return nil, err
	}
	defer closeObserved()

	// The traced engine: every layer timed around its public function.
	var L layers
	inner, err := newMat()
	if err != nil {
		return nil, err
	}
	tm := &timedMat{Materializer: inner}
	log := &callLog{}
	eng := engine(tm, log, false)
	defer eng.Close()
	side := newSideWork(g, measure)
	cache0, hasCache := netout.CacheStatsOf(inner)
	var shardSide *timedMat
	shardViews := make([]netout.Materializer, 0, w.shards)
	if sf != nil {
		for _, m := range sf.mats {
			v, err := netout.NewMaterializerView(m)
			if err != nil {
				return nil, err
			}
			shardViews = append(shardViews, v)
		}
		shardSide = &timedMat{}
	}
	runTracedQuery := func(i int) error {
		text := w.distinct[i].text
		start := time.Now()
		q, err := netout.ParseQuery(text)
		L.parse += time.Since(start)
		if err != nil {
			return err
		}
		start = time.Now()
		_, err = netout.ValidateQuery(q, g.Schema())
		L.validate += time.Since(start)
		if err != nil {
			return err
		}
		start = time.Now()
		cands, err := eng.EvalSet(q.From)
		refs := cands
		if err == nil && q.ComparedTo != nil {
			refs, err = eng.EvalSet(q.ComparedTo)
		}
		L.evalset += time.Since(start)
		if err != nil {
			return err
		}

		spent0, calls0 := tm.spent, tm.calls
		start = time.Now()
		r, err := eng.Execute(text)
		L.execute += time.Since(start)
		check(i, r, err)
		if err != nil {
			return nil
		}
		L.matLocal += tm.spent - spent0
		L.matVectors += tm.calls - calls0
		L.candidates += int64(len(cands))
		L.references += int64(len(refs))

		// Scoring and the counts behind it, on vectors computed off the
		// clock by a private traverser (bit-identical to the engine's).
		sw, err := side.query(i, w.distinct[i].spec.Features, cands, refs)
		if err != nil {
			return err
		}
		L.kernMerge += sw.merge
		L.kernDense += sw.dense
		L.kernMap += sw.mapK
		L.pairs += sw.pairs
		L.nonzeroPairs += sw.nonzero
		start = time.Now()
		for m := range sw.cands {
			netout.ScoreVectors(measure, sw.cands[m], sw.refs[m])
		}
		L.score += time.Since(start)
		if sf != nil {
			return L.addShardCalls(ctx, g, log.take(), shardViews, shardSide, r)
		}
		return nil
	}
	order := []func(int) error{runPlain, runObserved, runTracedQuery}
	for p := 0; p < n && ctx.Err() == nil; p++ {
		for k := range order {
			if err := order[(p+k)%len(order)](w.stream[p]); err != nil {
				return nil, err
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Pass 4: queue wait in a pool sized like the server, driven by the
	// workload's connection count.
	queueWait, err := tracedPool(ctx, g, w, n, measure, newMat, sf, check)
	if err != nil {
		return nil, err
	}

	q := float64(n)
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / q }
	perQ := func(x int64) float64 { return float64(x) / q }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	// The accounting identity: layers timed on the Execute path plus the
	// residual equal Execute. Sharded queries score (and mostly
	// materialize) inside the scatter wall, so their score time is not
	// counted again.
	scoreLocal := L.score
	if sf != nil {
		scoreLocal = 0
	}
	accounted := L.parse + L.validate + L.evalset + L.matLocal + scoreLocal + L.scatterWall
	residual := L.execute - accounted
	matAll := L.matLocal + L.matShard
	vecAll := L.matVectors + L.shardVectors
	var cacheHit, cachePrefix, cacheEvict, cacheBytes float64
	if hasCache {
		c1, _ := netout.CacheStatsOf(inner)
		cacheHit = ratio(c1.Hits-cache0.Hits, c1.Hits+c1.Misses-cache0.Hits-cache0.Misses)
		cachePrefix = ratio(c1.PrefixHits-cache0.PrefixHits, c1.Misses-cache0.Misses)
		cacheEvict = perQ(c1.Evictions - cache0.Evictions)
		cacheBytes = float64(c1.Bytes)
	}
	var retries float64
	if sf != nil {
		retries = float64(sf.retries())
	}
	vals := []struct {
		name, unit string
		v          float64
	}{
		{"http.residual_us", "us", httpResidual},
		{"serve.queue_wait_us", "us", queueWait},
		{"oql.parse_us", "us", us(L.parse)},
		{"oql.validate_us", "us", us(L.validate)},
		{"plan.evalset_us", "us", us(L.evalset)},
		{"plan.candidates", "count", perQ(L.candidates)},
		{"plan.references", "count", perQ(L.references)},
		{"materialize.us", "us", us(matAll)},
		{"materialize.vectors", "count", perQ(vecAll)},
		{"materialize.ns_per_vector", "ns", float64(matAll.Nanoseconds()) / float64(max(vecAll, 1))},
		{"metapath.vectors_merge", "count", perQ(L.kernMerge)},
		{"metapath.vectors_dense", "count", perQ(L.kernDense)},
		{"metapath.vectors_map", "count", perQ(L.kernMap)},
		{"cache.hit_ratio", "ratio", cacheHit},
		{"cache.prefix_resume_ratio", "ratio", cachePrefix},
		{"cache.evictions_per_query", "count", cacheEvict},
		{"cache.bytes", "bytes", cacheBytes},
		{"score.us", "us", us(L.score)},
		{"score.pairs", "count", perQ(L.pairs)},
		{"score.nonzero_pair_ratio", "ratio", ratio(L.nonzeroPairs, L.pairs)},
		{"scatter.shard_call_us", "us", float64(L.shardCall.Nanoseconds()) / 1e3 / float64(max(L.shardCalls, 1))},
		{"scatter.reduce_merge_us", "us", us(L.reduceMerge)},
		{"shardnet.request_bytes", "bytes", ratio(L.reqBytes, max(L.shardCalls, 1))},
		{"shardnet.response_bytes", "bytes", ratio(L.respBytes, max(L.shardCalls, 1))},
		{"shardnet.encode_us", "us", us(L.encode)},
		{"shardnet.decode_us", "us", us(L.decode)},
		{"shardnet.wire_us", "us", us(L.wire)},
		{"shardnet.retries", "count", retries},
		{"obs.overhead_us", "us", us(observed - plain)},
		{"engine.execute_us", "us", us(L.execute)},
		{"engine.residual_us", "us", us(residual)},
		{"engine.allocs_per_query", "count", perQ(int64(m1.Mallocs - m0.Mallocs))},
		{"engine.alloc_kb_per_query", "KB", perQ(int64(m1.TotalAlloc-m0.TotalAlloc)) / 1024},
		{"setup.load_s", "s", loadS},
		{"setup.index_build_s", "s", indexBuild.Seconds()},
		{"setup.index_mb", "MB", indexMB},
		{"trace.overhead_us", "us", us(L.execute - plain)},
	}
	res.Metrics = map[string]metric{}
	for _, v := range vals {
		res.Metrics[v.name] = metric{v.v, v.unit}
	}
	res.Correct = res.Failed == 0

	fmt.Fprintf(os.Stderr, "workload %s seed %d: traced replay of %d queries, %d attempted, %d failed\n",
		w.name, in.cfg.seed, n, res.Attempted, res.Failed)
	fmt.Fprintf(os.Stderr, "  accounting, mean us per query on the Execute path:\n")
	rows := []struct {
		name string
		d    time.Duration
	}{
		{"oql.parse_us", L.parse}, {"oql.validate_us", L.validate}, {"plan.evalset_us", L.evalset},
		{"materialize (local)", L.matLocal}, {"score (local)", scoreLocal}, {"scatter wall", L.scatterWall},
		{"engine.residual_us", residual},
	}
	for _, r := range rows {
		fmt.Fprintf(os.Stderr, "    %-24s %12.2f\n", r.name, us(r.d))
	}
	fmt.Fprintf(os.Stderr, "    %-24s %12.2f  (sum of the rows above)\n", "engine.execute_us", us(L.execute))
	if hasCache {
		ws, err := workingSet(g, w, measure)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "  cache budget %d MB against a working set of %.1f MB (the whole stream through an unbounded cache)\n",
			w.cacheMB, ws/1e6)
	}
	fmt.Fprintf(os.Stderr, "  tracing overhead: traced Execute %.2f us - untraced %.2f us = %.2f us per query\n",
		us(L.execute), us(plain), us(L.execute-plain))
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-30s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return res, nil
}

// workingSet replays the whole stream through a cache with no effective
// budget and returns the bytes it ends up holding.
func workingSet(g *netout.Graph, w *workload, measure netout.Measure) (float64, error) {
	mat, err := netout.NewCached(g, 1<<40, netout.WithSubpathCache(), netout.WithCachePlanner(true))
	if err != nil {
		return 0, err
	}
	eng := netout.NewEngine(g, netout.WithMeasure(measure), netout.WithMaterializer(mat), netout.WithQueryParallelism(1))
	defer eng.Close()
	for _, i := range w.stream {
		if _, err := eng.Execute(w.distinct[i].text); err != nil {
			return 0, err
		}
	}
	cs, _ := netout.CacheStatsOf(mat)
	return float64(cs.Bytes), nil
}

// addShardCalls folds one query's captured shard exchanges into the
// totals: call time, the scatter wall, codec cost and frame sizes measured
// on the captured messages, and the shard-side materialization replayed
// through a timed private view of each shard's index.
func (L *layers) addShardCalls(ctx context.Context, g *netout.Graph, calls []shardCall, views []netout.Materializer, tm *timedMat, r *netout.Result) error {
	if len(calls) == 0 {
		return nil
	}
	first, last := calls[0].start, calls[0].end
	for _, c := range calls {
		if c.start.Before(first) {
			first = c.start
		}
		if c.end.After(last) {
			last = c.end
		}
		call := c.end.Sub(c.start)
		L.shardCall += call
		L.shardCalls++

		var buf bytes.Buffer
		start := time.Now()
		if err := shardnet.WriteRequest(&buf, &shardnet.Request{Req: c.req, Broadcast: c.bcast}); err != nil {
			return err
		}
		enc := time.Since(start)
		L.reqBytes += int64(buf.Len())
		start = time.Now()
		if _, err := shardnet.ReadRequest(&buf); err != nil {
			return err
		}
		dec := time.Since(start)
		start = time.Now()
		if err := shardnet.WriteResponse(&buf, c.resp); err != nil {
			return err
		}
		enc += time.Since(start)
		L.respBytes += int64(buf.Len())
		start = time.Now()
		if _, err := shardnet.ReadResponse(&buf); err != nil {
			return err
		}
		dec += time.Since(start)
		L.encode += enc
		L.decode += dec
		L.wire += call - c.resp.Duration - enc - dec

		tm.Materializer = views[c.shard]
		spent0, calls0 := tm.spent, tm.calls
		if resp := core.ServeShardRequest(ctx, g, tm, c.req, c.bcast); resp.Err != "" {
			return fmt.Errorf("shard-side replay: %s", resp.Err)
		}
		L.matShard += tm.spent - spent0
		L.shardVectors += tm.calls - calls0
	}
	L.scatterWall += last.Sub(first)
	if r.Trace != nil {
		for _, phase := range []string{"reduce", "merge"} {
			if s, ok := r.Trace.Span(phase); ok {
				L.reduceMerge += s.Duration
			}
		}
	}
	return nil
}

// tracedHTTP starts the workload's server processes once and replays n
// stream queries over one connection, returning the mean of client latency
// minus the engine's reported total, in microseconds.
func tracedHTTP(ctx context.Context, in *inputs, n int, attempted *int, fail func(int, error)) (float64, error) {
	w := in.w
	fl, err := startFleet(ctx, in.cfg.netout, in.dir, w, in.netPath, in.queryPath)
	if err != nil {
		return 0, err
	}
	defer fl.stop()
	c := newClient(fl.url, 1)
	defer c.close()
	if err := firstAnswer(ctx, c, w, in.chk, 60*time.Second); err != nil {
		return 0, err
	}
	var sum time.Duration
	var ok int
	for p := 0; p < n && ctx.Err() == nil; p++ {
		i := w.stream[p]
		start := time.Now()
		status, body, err := c.send(ctx, w.distinct[i].text)
		lat := time.Since(start)
		*attempted++
		var rep *reply
		if err == nil {
			rep, err = in.chk.check(i, status, body)
		}
		if err != nil {
			fail(i, err)
			continue
		}
		sum += lat - time.Duration(rep.TotalUs)*time.Microsecond
		ok++
	}
	if ok == 0 {
		return 0, fmt.Errorf("no HTTP replies: %v", ctx.Err())
	}
	return float64(sum.Nanoseconds()) / 1e3 / float64(ok), ctx.Err()
}

// tracedPool replays n queries through a ServePool with one worker per
// connection, driven by that many goroutines, and returns the mean queue
// wait in microseconds.
func tracedPool(ctx context.Context, g *netout.Graph, w *workload, n int, measure netout.Measure,
	newMat func() (netout.Materializer, error), sf *shardFleet, check func(int, *netout.Result, error)) (float64, error) {
	mat, err := newMat()
	if err != nil {
		return 0, err
	}
	sink := &waitSink{}
	opts := netout.ServeOptions{Workers: w.conns, Measure: measure, Materializer: mat, QueryParallelism: 1, Events: sink}
	if sf != nil {
		opts.RemoteShards = sf.remotes(nil)
	}
	pool, err := netout.NewServePool(g, opts)
	if err != nil {
		return 0, err
	}
	defer pool.Close()
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for k := 0; k < w.conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				mu.Lock()
				p := next
				next++
				mu.Unlock()
				if p >= n {
					return
				}
				i := w.stream[p]
				r, err := pool.Execute(ctx, w.distinct[i].text)
				mu.Lock()
				check(i, r, err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if sink.n == 0 {
		return 0, fmt.Errorf("pool emitted no events")
	}
	return float64(sink.sumUs) / float64(sink.n), ctx.Err()
}

// sideWork computes, off the clock, each query's neighbor vectors with a
// private metapath traverser (for timed scoring, kernel counts and the
// pair overlap), memoised per distinct query.
type sideWork struct {
	g       *netout.Graph
	measure netout.Measure
	memo    map[int]*sideQuery
}

type sideQuery struct {
	cands, refs        [][]netout.Vector // per feature path
	merge, dense, mapK int64
	pairs, nonzero     int64
}

func newSideWork(g *netout.Graph, m netout.Measure) *sideWork {
	return &sideWork{g: g, measure: m, memo: map[int]*sideQuery{}}
}

func (s *sideWork) query(i int, features []oracle.Feature, cands, refs []netout.VertexID) (*sideQuery, error) {
	if sq, ok := s.memo[i]; ok {
		return sq, nil
	}
	sq := &sideQuery{}
	tr := netout.NewTraverser(s.g)
	k0 := tr.KernelCounts()
	for _, f := range features {
		p, err := netout.NewMetaPath(s.g.Schema(), f.Path...)
		if err != nil {
			return nil, err
		}
		vecs := func(vs []netout.VertexID) ([]netout.Vector, error) {
			out := make([]netout.Vector, len(vs))
			for k, v := range vs {
				var err error
				if out[k], err = tr.NeighborVector(p, v); err != nil {
					return nil, err
				}
			}
			return out, nil
		}
		cv, err := vecs(cands)
		if err != nil {
			return nil, err
		}
		rv, err := vecs(refs)
		if err != nil {
			return nil, err
		}
		sq.cands = append(sq.cands, cv)
		sq.refs = append(sq.refs, rv)
		sq.pairs += int64(len(cv)) * int64(len(rv))
		sq.nonzero += overlappingPairs(cv, rv)
	}
	k1 := tr.KernelCounts()
	sq.merge = int64(k1.Merge - k0.Merge)
	sq.dense = int64(k1.Dense - k0.Dense)
	sq.mapK = int64(k1.Map - k0.Map)
	s.memo[i] = sq
	return sq, nil
}

// overlappingPairs counts candidate×reference pairs whose vectors share a
// coordinate, through coordinate → reference postings.
func overlappingPairs(cands, refs []netout.Vector) int64 {
	post := map[int32][]int32{}
	for j, r := range refs {
		for _, c := range r.Idx {
			post[c] = append(post[c], int32(j))
		}
	}
	var total int64
	seen := make([]int32, len(refs))
	for i, c := range cands {
		mark := int32(i + 1)
		for _, k := range c.Idx {
			for _, j := range post[k] {
				if seen[j] != mark {
					seen[j] = mark
					total++
				}
			}
		}
	}
	return total
}
