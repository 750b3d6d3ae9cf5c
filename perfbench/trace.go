package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/dip"
	"repro/internal/gen"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/serve"
)

// The traced pass. The timed runs keep every kind of tracing off; this
// pass measures the layers separately, from outside the program:
//
//  (a) the same inputs go over HTTP to a dipserve started with
//      -accesslog, and each access-log row's stage split is joined to
//      its client span by X-Request-Id;
//  (b) the same inputs are replayed in process through the public layer
//      functions (decode, BuildInstance, CanonicalKey, Run, RunProtocol,
//      Ledger.Append), one span per call, with the
//      engine's round and run events arriving through a benchmark-owned
//      obs.Tracer;
//  (c) /v1/metricsz is scraped before and after the timed phase.
//
// Its overhead is the traced HTTP median against an untraced session
// run in the same pass.

// metricsSnap is one /v1/metricsz scrape: counter and gauge values,
// and histogram (count, sum) pairs.
type metricsSnap struct {
	values map[string]float64
	hists  map[string][2]float64
}

func scrapeMetrics(c *http.Client, base string) (metricsSnap, error) {
	snap := metricsSnap{values: map[string]float64{}, hists: map[string][2]float64{}}
	resp, err := c.Get(base + "/v1/metricsz")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("metricsz: status %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var row struct {
			Type  string  `json:"type"`
			Name  string  `json:"name"`
			Value float64 `json:"value"`
			Count float64 `json:"count"`
			Sum   float64 `json:"sum"`
		}
		if err := dec.Decode(&row); err == io.EOF {
			return snap, nil
		} else if err != nil {
			return snap, fmt.Errorf("metricsz: %w", err)
		}
		if row.Type == "histogram" {
			snap.hists[row.Name] = [2]float64{row.Count, row.Sum}
		} else {
			snap.values[row.Name] = row.Value
		}
	}
}

func (a metricsSnap) delta(b metricsSnap, name string) float64 {
	return b.values[name] - a.values[name]
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// accessRow is the part of a dipserve access-log row the join reads.
type accessRow struct {
	ID     uint64             `json:"id"`
	Path   string             `json:"path"`
	DurMS  float64            `json:"dur_ms"`
	Stages map[string]float64 `json:"stages"`
}

func readAccessLog(path string) (map[string]accessRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows := map[string]accessRow{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var r accessRow
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("access log: %w", err)
		}
		if r.Path == "/v1/certify" {
			rows[strconv.FormatUint(r.ID, 10)] = r
		}
	}
	return rows, sc.Err()
}

// span is one timed call of the in-process replay.
type span struct {
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the replay began
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index of the enclosing span, -1 at the root
}

// recorder keeps the replay's spans in memory; they are written out
// when the pass ends. The replay runs on one goroutine, and the engines
// emit events on their caller's goroutine, so it needs no lock.
type recorder struct {
	t0    time.Time
	req   int
	spans []span
	open  []int // stack of open span indices
}

func (r *recorder) begin(name string) int {
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, span{Req: r.req, Name: name, StartNS: time.Since(r.t0).Nanoseconds(), Parent: parent})
	r.open = append(r.open, len(r.spans)-1)
	return len(r.spans) - 1
}

// end closes span i and returns its duration.
func (r *recorder) end(i int) time.Duration {
	r.spans[i].EndNS = time.Since(r.t0).Nanoseconds()
	r.open = r.open[:len(r.open)-1]
	return time.Duration(r.spans[i].EndNS - r.spans[i].StartNS)
}

func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// engineTracer turns the engine's run and round events into spans and
// per-phase sums of their WallNS. Per-node NodeDecide events take no
// part in the timing; every event is kept, unprocessed, for the
// fingerprint replay (see fingerprintCost).
type engineTracer struct {
	rec    *recorder
	events []obs.Event

	prover, coins, decide int64 // ns
	engineWall            int64 // ns inside engine (non-composite) runs
	runs                  int
	roundNS               int64 // rounds of the engine run in progress
	open                  []int
}

func (t *engineTracer) Emit(e obs.Event) {
	t.events = append(t.events, e)
	switch e.Kind {
	case obs.RunStart:
		t.open = append(t.open, t.rec.begin("dip.run/"+e.Protocol))
		if e.Engine != obs.EngineComposite {
			t.roundNS = 0
		}
	case obs.ProverRoundStart:
		t.open = append(t.open, t.rec.begin("dip.prover"))
	case obs.VerifierRoundStart:
		t.open = append(t.open, t.rec.begin("dip.coins"))
	case obs.ProverRoundEnd:
		t.pop()
		t.prover += e.WallNS
		t.roundNS += e.WallNS
	case obs.VerifierRoundEnd:
		t.pop()
		t.coins += e.WallNS
		t.roundNS += e.WallNS
	case obs.RunEnd:
		t.pop()
		if e.Engine != obs.EngineComposite {
			t.runs++
			t.engineWall += e.WallNS
			t.decide += e.WallNS - t.roundNS
		}
	}
}

func (t *engineTracer) pop() {
	if n := len(t.open); n > 0 {
		t.rec.end(t.open[n-1])
		t.open = t.open[:n-1]
	}
}

// fingerprintCost times what serve.RunProtocol adds to a bare run: the
// run's event stream through an obs.CollectTracer, then the FNV digest
// of its fingerprint.
func fingerprintCost(events []obs.Event) time.Duration {
	t0 := time.Now()
	c := obs.NewCollect()
	for _, e := range events {
		c.Emit(e)
	}
	io.WriteString(fnv.New64a(), c.Fingerprint())
	return time.Since(t0)
}

// replayStats accumulates the in-process replay's per-operation values.
type replayStats struct {
	ops                                 int
	decodeUS, keyUS, buildMS            []float64
	runMS                               map[string][]float64
	selfMS, proverMS, coinsMS, decideMS []float64
	fingerprintMS, appendUS             []float64
	untracedMS, tracedMS                []float64
	labelBits, engineRuns               float64
	freezes                             uint64
	allocBytes                          uint64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// replay runs the requests through the public layer functions in
// process. warm requests are replayed first and not measured (bulk-large's
// set-up certify, which interns and freezes its instance).
func replay(warm, measured []*request, rec *recorder, led *ledger.Ledger) (*replayStats, error) {
	rs := &replayStats{runMS: map[string][]float64{}}
	interned := map[serve.RequestKey]*serve.Instance{}
	ctx := context.Background()
	all := append(append([]*request(nil), warm...), measured...)
	var mem runtime.MemStats
	for i, r := range all {
		count := i >= len(warm)
		rec.req = i
		root := rec.begin("request")

		runtime.ReadMemStats(&mem)
		alloc0 := mem.TotalAlloc
		sp := rec.begin("serve.decode")
		var req serve.Request
		dec := json.NewDecoder(bytes.NewReader(r.body))
		dec.DisallowUnknownFields()
		err := dec.Decode(&req)
		decode := rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("replay decode: %w", err)
		}
		sp = rec.begin("gen.build")
		inst, err := serve.BuildInstance(&req)
		build := rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("replay build: %w", err)
		}
		g := inst.G
		sp = rec.begin("serve.key")
		key := serve.CanonicalKey(req.Protocol, req.Seed, g.N(), g.Edges(), inst.PathPos, inst.Rotation)
		keyD := rec.end(sp)
		runtime.ReadMemStats(&mem)
		allocKey := mem.TotalAlloc
		ik := serve.InstanceKey(g.N(), g.Edges(), inst.PathPos, inst.Rotation)
		if cached, ok := interned[ik]; ok {
			inst = cached
		} else {
			interned[ik] = inst
		}
		d, _ := protocol.Get(req.Protocol)
		f0 := dip.FreezeCount()
		sp = rec.begin("protocol.run/" + req.Protocol)
		out, err := d.Run(ctx, inst, req.Seed)
		untraced := rec.end(sp)
		if err != nil || !out.Accepted {
			return nil, fmt.Errorf("replay run of %s: accepted=%v err=%v", req.Protocol, out != nil && out.Accepted, err)
		}
		freezes := dip.FreezeCount() - f0

		et := &engineTracer{rec: rec}
		sp = rec.begin("protocol.run_traced/" + req.Protocol)
		if _, err := d.Run(ctx, inst, req.Seed, dip.WithTracer(et)); err != nil {
			return nil, err
		}
		traced := rec.end(sp)

		runtime.ReadMemStats(&mem)
		alloc1 := mem.TotalAlloc
		sp = rec.begin("serve.run_protocol")
		res, err := serve.RunProtocol(ctx, req.Protocol, inst, req.Seed, nil)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		sp = rec.begin("ledger.append")
		_, _, err = led.Append(ledger.Entry{
			Key: string(key), Protocol: req.Protocol, Nodes: g.N(), Edges: g.M(), Seed: req.Seed,
			Accepted: res.Accepted, Rounds: res.Rounds, ProofSizeBits: res.ProofSizeBits,
			TotalBits: res.TotalLabelBits, MaxCoinBits: res.MaxCoinBits, Fingerprint: res.Fingerprint,
		})
		appendD := rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("replay append: %w", err)
		}
		runtime.ReadMemStats(&mem)
		alloc2 := mem.TotalAlloc
		rec.end(root)
		if !count {
			continue
		}
		// The service's own path per miss: decode, build, key,
		// RunProtocol, append; the bare and traced runs are excluded.
		rs.allocBytes += (allocKey - alloc0) + (alloc2 - alloc1)
		rs.ops++
		rs.decodeUS = append(rs.decodeUS, us(decode))
		rs.keyUS = append(rs.keyUS, us(keyD))
		rs.buildMS = append(rs.buildMS, ms(build))
		rs.runMS[req.Protocol] = append(rs.runMS[req.Protocol], ms(untraced))
		rs.untracedMS = append(rs.untracedMS, ms(untraced))
		rs.tracedMS = append(rs.tracedMS, ms(traced))
		rs.selfMS = append(rs.selfMS, ms(traced)-float64(et.engineWall)/1e6)
		rs.proverMS = append(rs.proverMS, float64(et.prover)/1e6)
		rs.coinsMS = append(rs.coinsMS, float64(et.coins)/1e6)
		rs.decideMS = append(rs.decideMS, float64(et.decide)/1e6)
		rs.fingerprintMS = append(rs.fingerprintMS, ms(fingerprintCost(et.events)))
		rs.appendUS = append(rs.appendUS, us(appendD))
		rs.labelBits += float64(out.TotalLabelBits)
		rs.engineRuns += float64(et.runs)
		rs.freezes += freezes
	}
	return rs, nil
}

// probeMissing times one untraced Run of every protocol the replay did
// not exercise, on that protocol's own generator family at size n, so
// that every protocol layer has a measured time on every workload
// (bulk-large's traffic runs planarity only).
func probeMissing(rs *replayStats, n int, seed int64) error {
	for _, d := range protocol.All() {
		if len(rs.runMS[d.Name]) > 0 {
			continue
		}
		spec := gen.FamilySpec{Family: d.Family, N: n, ChordProb: -1}
		g, pos, rot, err := spec.BuildWitnessed(rand.New(rand.NewSource(derive(seed, "probe-"+d.Name, 0))))
		if err != nil {
			return err
		}
		inst := &protocol.Instance{G: g, PathPos: pos, Rotation: rot}
		t0 := time.Now()
		out, err := d.Run(context.Background(), inst, derive(seed, "probe-verifier", 0))
		if err != nil || !out.Accepted {
			return fmt.Errorf("probe run of %s: accepted=%v err=%v", d.Name, out != nil && out.Accepted, err)
		}
		rs.runMS[d.Name] = append(rs.runMS[d.Name], ms(time.Since(t0)))
	}
	return nil
}

// replayCount bounds the fresh-durable replay: ten slow-class periods.
const replayCount = 10 * freshSlowStep

// replaySet picks the replay's inputs: the workload's set-up requests
// plus a prefix of its timed sequence, with set-up unmeasured where
// the timed phase re-sends its instance.
func replaySet(wl *workload) (warm, measured []*request) {
	switch {
	case wl.wantHit:
		return nil, wl.setup
	case len(wl.setup) > 0:
		return wl.setup, []*request{wl.timed(0), wl.timed(1), wl.timed(2)}
	}
	for i := 0; i < replayCount; i++ {
		measured = append(measured, wl.timed(i))
	}
	return nil, measured
}

// timeLedgerOpen measures a restart replay of the ledger in dir.
func timeLedgerOpen(dir string) (time.Duration, error) {
	t0 := time.Now()
	store, err := ledger.OpenFileStore(dir)
	if err != nil {
		return 0, err
	}
	led, err := ledger.Open(store, ledger.Config{})
	if err != nil {
		store.Close()
		return 0, err
	}
	d := time.Since(t0)
	return d, led.Close()
}

// traced is the traced pass: per-layer metrics only.
func (st *runState) traced() error {
	wl := st.wl
	// A restart replay of the pristine history, before anything
	// appends to it; the traced session gets its own byte-identical
	// rebuild.
	var replayS time.Duration
	var tracedHistory string
	if st.history != "" {
		var err error
		if replayS, err = timeLedgerOpen(st.history); err != nil {
			return err
		}
		tracedHistory = filepath.Join(st.dir, "history-traced")
		if err := buildHistory(tracedHistory, st.o.seed, wl.history); err != nil {
			return err
		}
	}
	base, err := st.session(1, st.ledgerDirs("base", st.history), "", false)
	if err != nil {
		return err
	}
	logPath := filepath.Join(st.dir, "access.ndjson")
	tr, err := st.session(1, st.ledgerDirs("traced", tracedHistory), logPath, true)
	if err != nil {
		return err
	}
	st.tally(base.samples)
	st.tally(tr.samples)
	if st.history == "" {
		if replayS, err = timeLedgerOpen(st.ledgerDirs("traced", "")(0)); err != nil {
			return err
		}
	}

	// (a) access-log join.
	rows, err := readAccessLog(logPath)
	if err != nil {
		return err
	}
	var admission, encode, overhead, unattributed, queueWait []float64
	for _, s := range tr.samples {
		row, ok := rows[s.reqID]
		if !ok {
			return fmt.Errorf("access log has no row for request id %q", s.reqID)
		}
		admission = append(admission, row.Stages["admission"]*1000)
		encode = append(encode, row.Stages["encode"]*1000)
		overhead = append(overhead, (ms(s.lat)-row.DurMS)*1000)
		staged := 0.0
		for _, v := range row.Stages {
			staged += v
		}
		unattributed = append(unattributed, (row.DurMS-staged)*1000)
	}
	// Queue wait exists only on misses; on hit-inline those are set-up's.
	for _, row := range rows {
		if v, ok := row.Stages["queue_wait"]; ok {
			queueWait = append(queueWait, v*1000)
		}
	}
	sort.Float64s(queueWait)
	queueP50, queueP99 := 0.0, 0.0
	if len(queueWait) > 0 {
		queueP50, queueP99 = percentile(queueWait, 50), percentile(queueWait, 99)
	}

	// (c) metricsz deltas over the traced timed phase.
	b, a := tr.before, tr.after
	hits, misses, shared := b.delta(a, "cache_hits_total"), b.delta(a, "cache_misses_total"), b.delta(a, "singleflight_shared_total")
	ihits, imisses := b.delta(a, "instance_cache_hits_total"), b.delta(a, "instance_cache_misses_total")
	busy, idle := b.delta(a, "pool_busy_ns_total"), b.delta(a, "pool_idle_ns_total")
	flush := a.hists["ledger_batch_flush_ns"]
	ops := float64(len(tr.samples))

	// (b) in-process replay.
	rec := &recorder{t0: time.Now()}
	store, err := ledger.OpenFileStore(filepath.Join(st.dir, "replay-ledger"))
	if err != nil {
		return err
	}
	led, err := ledger.Open(store, ledger.Config{})
	if err != nil {
		store.Close()
		return err
	}
	warm, measured := replaySet(wl)
	rs, err := replay(warm, measured, rec, led)
	if cerr := led.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := probeMissing(rs, measured[0].n, st.o.seed); err != nil {
		return err
	}
	spansPath := filepath.Join(workDir, fmt.Sprintf("spans-%s-%d.ndjson", wl.name, st.o.seed))
	if err := rec.write(spansPath); err != nil {
		return err
	}
	st.attempted += rs.ops

	p50 := func(s []sample) float64 {
		lat := make([]time.Duration, len(s))
		for i := range s {
			lat[i] = s[i].lat
		}
		return percentile(sortedMillis(lat), 50)
	}
	basep50, tracedp50 := p50(base.samples), p50(tr.samples)
	appendSorted := append([]float64(nil), rs.appendUS...)
	sort.Float64s(appendSorted)
	n := float64(rs.ops)
	m := map[string]metric{
		"serve.decode_us":          {median(rs.decodeUS), "us"},
		"serve.key_us":             {median(rs.keyUS), "us"},
		"serve.admission_us":       {median(admission), "us"},
		"serve.encode_us":          {median(encode), "us"},
		"http.overhead_us":         {median(overhead), "us"},
		"serve.queue_wait_us":      {queueP50, "us"},
		"serve.queue_wait_p99_us":  {queueP99, "us"},
		"serve.unattributed_us":    {median(unattributed), "us"},
		"serve.cache_hit_ratio":    {ratio(hits, hits+misses+shared), "ratio"},
		"serve.instance_hit_ratio": {ratio(ihits, ihits+imisses), "ratio"},
		"dip.freezes_per_op":       {float64(rs.freezes) / n, "count"},
		"gen.build_ms":             {median(rs.buildMS), "ms"},
		"protocol.self_ms":         {median(rs.selfMS), "ms"},
		"dip.prover_ms":            {median(rs.proverMS), "ms"},
		"dip.coins_ms":             {median(rs.coinsMS), "ms"},
		"dip.decide_ms":            {median(rs.decideMS), "ms"},
		"dip.label_bits_per_op":    {rs.labelBits / n, "bits"},
		"dip.runs_per_op":          {rs.engineRuns / n, "count"},
		"dip.pool_batches_per_op":  {b.delta(a, "pool_batches_total") / ops, "count"},
		"dip.pool_idle_ratio":      {ratio(idle, busy+idle), "ratio"},
		"obs.fingerprint_ms":       {median(rs.fingerprintMS), "ms"},
		"ledger.append_us":         {percentile(appendSorted, 50), "us"},
		"ledger.append_p99_us":     {percentile(appendSorted, 99), "us"},
		"ledger.seal_ms":           {ratio(flush[1], flush[0]) / 1e6, "ms"},
		"ledger.replay_s":          {replayS.Seconds(), "s"},
		"go.alloc_kb_per_op":       {float64(rs.allocBytes) / 1024 / n, "KiB"},
		"trace.overhead_pct":       {(tracedp50 - basep50) / basep50 * 100, "%"},
	}
	for _, name := range protocol.Names() {
		m["protocol."+name+".run_ms"] = metric{median(rs.runMS[name]), "ms"}
	}
	st.metrics = m
	st.notes["traced_ops"] = len(tr.samples)
	st.notes["untraced_ops"] = len(base.samples)
	st.notes["untraced_p50_ms"] = basep50
	st.notes["traced_p50_ms"] = tracedp50
	st.notes["replay_ops"] = rs.ops
	st.notes["engine_trace_overhead_pct"] = (median(rs.tracedMS) - median(rs.untracedMS)) / median(rs.untracedMS) * 100
	st.notes["queue_wait_rows"] = len(queueWait)
	st.notes["spans"] = spansPath
	st.notes["steal_ticks"] = tr.steal + base.steal
	return nil
}
