package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// phase is one server session: boots, the set-up after each, and one
// timed phase on the last boot.
type phase struct {
	samples  []sample
	elapsed  time.Duration
	windows  []window
	cpuTicks int64            // server user+system CPU over the timed phase
	steal    int64            // host steal ticks over the timed phase
	hwmKB    int64            // server VmHWM at the end of the timed phase
	probe    [2]time.Duration // hostProbe before and after the timed phase
	setups   []float64
	// before/after are /v1/metricsz snapshots around the timed phase,
	// taken only when the session scrapes.
	before, after metricsSnap
}

// session boots the server boots times, each into the ledger directory
// ledgerDir returns, and runs the set-up after every boot; the last
// boot additionally runs the timed phase, then the post-run checks
// while the server is still up.
func (st *runState) session(boots int, ledgerDir func(boot int) string, accessLog string, scrape bool) (*phase, error) {
	p := &phase{}
	for b := 0; b < boots; b++ {
		t0 := time.Now()
		srv, err := startServer(st.o.server, ledgerDir(b), accessLog)
		if err != nil {
			return nil, err
		}
		if err := st.warmUp(srv); err != nil {
			srv.kill()
			return nil, err
		}
		p.setups = append(p.setups, time.Since(t0).Seconds())
		if b < boots-1 {
			if err := srv.stop(); err != nil {
				return nil, err
			}
			continue
		}
		err = st.timedPhase(srv, p, scrape)
		if err == nil {
			st.postChecks(srv, p.samples)
		}
		if serr := srv.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// warmUp checks that the server answers, then certifies the workload's
// set-up requests, split over its clients. The first boot records each
// verdict's fingerprint; later boots must reproduce it.
func (st *runState) warmUp(srv *server) error {
	var health struct {
		Status string `json:"status"`
	}
	if err := getJSON(st.client, srv.base+"/v1/healthz", &health); err != nil || health.Status != "ok" {
		return fmt.Errorf("healthz after boot: %q, %v", health.Status, err)
	}
	set := st.wl.setup
	errs := make([]error, len(set))
	fps := make([]string, len(set))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < st.wl.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(set); i = int(next.Add(1) - 1) {
				status, body, _, err := certify(st.client, srv.base, set[i].body)
				if err == nil {
					var cr *certifyResp
					cr, err = checkResponse(set[i], status, body, false, "")
					if cr != nil {
						fps[i] = cr.Fingerprint
					}
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	first := st.setupFP == nil
	if first {
		st.setupFP = make(map[*request]string, len(set))
	}
	for i, r := range set {
		st.attempted++
		switch {
		case errs[i] != nil:
			st.fail(fmt.Errorf("set-up request %d: %w", i, errs[i]))
		case first:
			st.setupFP[r] = fps[i]
		case st.setupFP[r] != fps[i]:
			st.fail(fmt.Errorf("set-up request %d: fingerprint %s differs from the first boot's %s", i, fps[i], st.setupFP[r]))
		}
	}
	return nil
}

// timedPhase drives the closed loop for the configured seconds and
// reads the server's CPU, peak RSS and the host's steal around it.
func (st *runState) timedPhase(srv *server, p *phase, scrape bool) error {
	wl := st.wl
	var err error
	if scrape {
		if p.before, err = scrapeMetrics(st.client, srv.base); err != nil {
			return err
		}
	}
	p.probe[0] = hostProbe()
	cpu0, err := readProcCPUTicks(srv.pid)
	if err != nil {
		return err
	}
	steal0, err := readStealTicks()
	if err != nil {
		return err
	}
	judge := func(r *request, status int, body []byte) (*certifyResp, error) {
		return checkResponse(r, status, body, wl.wantHit, st.setupFP[r])
	}
	start := time.Now()
	deadline := start.Add(time.Duration(st.o.seconds) * time.Second)
	ws := &windower{pid: srv.pid, last: start, lastCPU: cpu0}
	p.samples, err = closedLoop(st.client, srv.base, wl.clients, deadline, wl.poolSize, wl.timed, judge, ws.done)
	p.elapsed = time.Since(start)
	if err == nil {
		err = ws.err
	}
	if err != nil {
		return err
	}
	p.windows = ws.windows
	cpu1, err := readProcCPUTicks(srv.pid)
	if err != nil {
		return err
	}
	steal1, err := readStealTicks()
	if err != nil {
		return err
	}
	p.cpuTicks, p.steal = cpu1-cpu0, steal1-steal0
	p.probe[1] = hostProbe()
	if p.hwmKB, err = readPeakRSSKB(srv.pid); err != nil {
		return err
	}
	if scrape {
		if p.after, err = scrapeMetrics(st.client, srv.base); err != nil {
			return err
		}
	}
	if len(p.samples) == 0 {
		return fmt.Errorf("no operation completed in %v", p.elapsed)
	}
	return nil
}

// window is one measurement window of the timed phase: it closes at
// the first operation completion at least windowLen after it opened,
// so it holds at least one operation.
type window struct {
	ops int64
	cpu int64 // server CPU ticks
	dur time.Duration
}

const windowLen = time.Second

// windower cuts the timed phase into windows, reading the server's CPU
// ticks at each window's closing completion.
type windower struct {
	pid int

	mu      sync.Mutex
	last    time.Time
	lastOps int64
	lastCPU int64
	windows []window
	err     error
}

func (w *windower) done(completed int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	now := time.Now()
	if now.Sub(w.last) < windowLen || w.err != nil {
		return
	}
	cpu, err := readProcCPUTicks(w.pid)
	if err != nil {
		w.err = err
		return
	}
	w.windows = append(w.windows, window{ops: completed - w.lastOps, cpu: cpu - w.lastCPU, dur: now.Sub(w.last)})
	w.last, w.lastOps, w.lastCPU = now, completed, cpu
}

// postChecks runs the checks that are too costly to run inline, after
// the clock stops: the fixed fingerprint sample against an in-process
// serve.RunProtocol, and on the durable workload an audit of sampled
// certificates (inclusion proof plus root chain). Failures mark the
// sample failed; audits count as operations of their own.
func (st *runState) postChecks(srv *server, samples []sample) {
	wl := st.wl
	if wl.wantHit {
		// Timed hits were compared with the set-up fingerprints inline;
		// every eighth set-up verdict is recomputed here.
		for i := 0; i < len(wl.setup); i += 8 {
			r := wl.setup[i]
			if fp, err := localFingerprint(r.body); err != nil || fp != st.setupFP[r] {
				st.fail(fmt.Errorf("set-up request %d: local fingerprint %s (%v), server %s", i, fp, err, st.setupFP[r]))
			}
		}
	}
	for i := range samples {
		s := &samples[i]
		if wl.fingerprintEvery == 0 || s.idx%wl.fingerprintEvery != 0 || s.err != nil {
			continue
		}
		if fp, err := localFingerprint(wl.timed(s.idx).body); err != nil || fp != s.fp {
			s.err = fmt.Errorf("request %d: local fingerprint %s (%v), server %s", s.idx, fp, err, s.fp)
		}
	}
	if wl.history == 0 {
		return
	}
	// Entries from the first half of the phase sit in sealed batches.
	for i := 0; i < len(samples)/2; i += auditEvery {
		st.attempted++
		if samples[i].err != nil {
			continue
		}
		if err := auditCertificate(st.client, srv.base, samples[i]); err != nil {
			st.fail(fmt.Errorf("certificate audit of request %d: %w", samples[i].idx, err))
		}
	}
}

// auditEvery spaces the audited certificates (~15 per fresh-durable run).
const auditEvery = 97

// tally counts the timed samples as operations.
func (st *runState) tally(samples []sample) {
	for _, s := range samples {
		st.attempted++
		if s.err != nil {
			st.fail(fmt.Errorf("request %d: %w", s.idx, s.err))
		}
	}
}

// ledgerDirs returns the ledger directory for each boot of a session:
// the pristine history when the workload replays one (set-up appends
// nothing there), a fresh empty directory per boot otherwise, so that
// no boot starts warm from an earlier one's verdicts.
func (st *runState) ledgerDirs(tag, history string) func(int) string {
	return func(b int) string {
		if history != "" {
			return history
		}
		return filepath.Join(st.dir, fmt.Sprintf("ledger-%s-%d", tag, b))
	}
}

// timed is the untraced run: end-to-end metrics only.
func (st *runState) timed() error {
	p, err := st.session(boots, st.ledgerDirs("timed", st.history), "", false)
	if err != nil {
		return err
	}
	st.tally(p.samples)
	n := len(p.samples)
	lat := make([]time.Duration, n)
	for i, s := range p.samples {
		lat[i] = s.lat
	}
	sorted := sortedMillis(lat)
	tail, err := tailMillis(sorted, st.wl.tailP)
	if err != nil {
		return err
	}
	hz := float64(clockTicks())
	// The per-window values only go to the provenance line, where they
	// show a stall or a burst that the whole-phase metrics average in.
	var rate, cpuPerOp []float64
	for _, w := range p.windows {
		rate = append(rate, float64(w.ops)/w.dur.Seconds())
		cpuPerOp = append(cpuPerOp, float64(w.cpu)*1000/hz/float64(w.ops))
	}
	st.metrics = map[string]metric{
		"throughput_rps": {float64(n) / p.elapsed.Seconds(), "1/s"},
		"p50_ms":         {percentile(sorted, 50), "ms"},
		"tail_ms":        {tail, "ms"},
		"cpu_ms_per_op":  {float64(p.cpuTicks) * 1000 / hz / float64(n), "ms"},
		"peak_rss_mb":    {float64(p.hwmKB) / 1024, "MiB"},
		"setup_s":        {median(p.setups), "s"},
	}
	st.notes["ops"] = n
	st.notes["tail_percentile"] = st.wl.tailP
	st.notes["timed_s"] = p.elapsed.Seconds()
	st.notes["steal_ticks"] = p.steal
	st.notes["host_probe_ms"] = []float64{p.probe[0].Seconds() * 1000, p.probe[1].Seconds() * 1000}
	st.notes["window_rps"] = rate
	st.notes["window_cpu_ms_per_op"] = cpuPerOp
	st.notes["setup_s_each"] = p.setups
	return nil
}

// provenance records what produced a run's numbers and how noisy the
// host was; none of it is a metric.
func provenance(dir string) map[string]any {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return map[string]any{
		"commit":            commitID(),
		"go":                runtime.Version(),
		"num_cpu":           runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"kernel":            strings.TrimSpace(string(kernel)),
		"ledger_dir":        dir,
		"ledger_fs":         fsType(dir),
		"clock_ticks_per_s": clockTicks(),
	}
}

// commitID names the code under test: the git commit when the checkout
// is a repository (marked "-dirty" with uncommitted changes), otherwise
// a digest of its Go sources.
func commitID() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=40").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(b))
		h.Write(b)
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}
