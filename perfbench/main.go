// Command perfbench is the repository benchmark: it drives the d/stream
// library end to end on three workloads and reports wall-clock, virtual-time
// and memory metrics, or (with --trace 1) the same run split by layer.
//
//	go run . --workload scf_checkpoint --seed 1 --seconds 20 --trace 0
//
// Every iteration is verified against the seeded generator; the last line
// of standard output is one JSON object with the verdict and the metrics.
// See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"pcxxstreams/internal/bufpool"
)

// Run shape. Set-up is repeated so setup_s is a median; the watchdog turns
// an iteration that never returns into a counted failure.
const (
	setupReps      = 5
	iterTimeout    = 30 * time.Second
	minIterations  = 3
	defaultWorkDir = ".bench_build/work"
)

var workloadNames = []string{"scf_checkpoint", "channel_pipeline", "daemon_restart"}

func newWorkload(name string, seed int64, workDir string) (workload, error) {
	switch name {
	case "scf_checkpoint":
		return newSCFCheckpoint(seed, workDir)
	case "channel_pipeline":
		return newChannelPipeline(seed)
	case "daemon_restart":
		return newDaemonRestart(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errHang is the watchdog's verdict on an iteration that did not return.
var errHang = errors.New("iteration still running after the watchdog timeout")

// guarded runs f under the watchdog.
func guarded[T any](f func() (T, error)) (T, error) {
	type ret struct {
		v   T
		err error
	}
	done := make(chan ret, 1)
	go func() {
		v, err := f()
		done <- ret{v, err}
	}()
	timer := time.NewTimer(iterTimeout)
	defer timer.Stop()
	select {
	case r := <-done:
		return r.v, r.err
	case <-timer.C:
		var zero T
		return zero, errHang
	}
}

// bench is one run's bookkeeping.
type bench struct {
	name     string
	w        workload
	res      result
	virtual  float64 // fresh-file-system makespan from the first warm-up
	lastVirt float64 // makespan of the last measured iteration
	hung     bool
}

func (b *bench) fail(what string, err error) {
	b.res.Failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s: %s: %v\n", b.name, what, err)
	if errors.Is(err, errHang) {
		b.hung = true
	}
}

// iterate runs one counted iteration and checks its virtual time.
func (b *bench) iterate(record, detail bool) (outcome, bool) {
	b.res.Attempted++
	o, err := guarded(func() (outcome, error) { return b.w.iterate(record, detail) })
	if err == nil && o.fresh && b.virtual != 0 && o.virtual != b.virtual {
		err = fmt.Errorf("virtual makespan %.9g on a fresh file system, first run gave %.9g", o.virtual, b.virtual)
	}
	if err != nil {
		b.fail("iteration", err)
		return o, false
	}
	if b.virtual == 0 && o.fresh {
		b.virtual = o.virtual
	}
	b.lastVirt = o.virtual
	return o, true
}

// setUp opens an instance and runs its warm-up iteration on a fresh file
// system, returning the wall time both took.
func (b *bench) setUp(t *tracer) (outcome, float64, bool) {
	start := time.Now()
	_, err := guarded(func() (struct{}, error) { return struct{}{}, b.w.open(t) })
	if err != nil {
		b.res.Attempted++
		b.fail("set-up", err)
		return outcome{}, 0, false
	}
	o, ok := b.iterate(t != nil, true)
	return o, time.Since(start).Seconds(), ok
}

func (b *bench) shut() {
	if err := b.w.shut(); err != nil {
		b.fail("shut-down", err)
	}
}

func main() {
	workloadName := flag.String("workload", "", "workload: "+fmt.Sprint(workloadNames))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured run length")
	traceMode := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	workDir := flag.String("workdir", defaultWorkDir, "directory for temporary files and the span dump")
	flag.Parse()
	if *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	w, err := newWorkload(*workloadName, *seed, *workDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	b := &bench{name: *workloadName, w: w, res: result{Metrics: map[string]metric{}}}
	deadline := time.Duration(*seconds) * time.Second
	if *traceMode == 1 {
		b.traced(deadline, *workDir, *seed)
	} else {
		b.untraced(deadline)
	}
	b.res.Correct = b.res.Failed == 0
	names := make([]string, 0, len(b.res.Metrics))
	for n := range b.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.res.Metrics[n]
		fmt.Printf("%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(b.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !b.res.Correct {
		os.Exit(1)
	}
}

// untraced measures the end-to-end metrics.
func (b *bench) untraced(deadline time.Duration) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		_, secs, ok := b.setUp(nil)
		if !ok {
			return
		}
		setups = append(setups, secs)
		if i < setupReps-1 {
			b.shut()
		}
	}
	runtime.GC()

	payload := float64(b.w.payload())
	var iterMs, writeMBps, readMBps, allocRatio []float64
	peak := startHeapSampler()
	start := time.Now()
	for n := 0; n < minIterations || time.Since(start) < deadline; n++ {
		o, ok := b.iterate(false, false)
		if b.hung {
			break
		}
		if !ok {
			continue
		}
		iterMs = append(iterMs, float64(o.wallNs)/1e6)
		writeMBps = append(writeMBps, payload/float64(o.writeNs)*1e3)
		readMBps = append(readMBps, payload/float64(o.readNs)*1e3)
		allocRatio = append(allocRatio, float64(o.allocB)/payload)
	}
	peakHeap := peak()
	if !b.hung {
		b.shut()
	}
	if len(iterMs) == 0 {
		return
	}
	set := func(name string, v float64, unit string) { b.res.Metrics[name] = metric{v, unit} }
	set("write_MBps", median(writeMBps), "MB/s")
	set("read_MBps", median(readMBps), "MB/s")
	set("iter_ms_p50", quantile(iterMs, 0.5), "ms")
	set("iter_ms_p90", quantile(iterMs, 0.9), "ms")
	set("virtual_s", b.virtual, "sim_s")
	set("alloc_B_per_payload_B", median(allocRatio), "B/B")
	set("peak_heap_MB", float64(peakHeap)/1e6, "MB")
	set("setup_s", median(setups), "s")
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d measured iterations\n", b.name, len(iterMs))
}

// traced checks that the timing wrappers are transparent, then alternates
// untraced and traced iterations and reports the per-layer split.
func (b *bench) traced(deadline time.Duration, workDir string, seed int64) {
	// Transparency: the first iteration of a plain instance and of a
	// wrapped, recording instance must agree on everything they produce.
	plain, _, ok := b.setUp(nil)
	if !ok {
		return
	}
	b.shut()
	t := newTracer()
	wrapped, _, ok := b.setUp(t)
	if !ok {
		return
	}
	if err := sameFingerprint(plain, wrapped); err != nil {
		b.fail("transparency", err)
	}
	runtime.GC()

	payload := float64(b.w.payload())
	var plainMs, tracedMs []float64
	type series struct {
		unit string
		vals []float64
	}
	per := map[string]*series{}
	add := func(name, unit string, v float64) {
		if per[name] == nil {
			per[name] = &series{unit: unit}
		}
		per[name].vals = append(per[name].vals, v)
	}
	var gcCycles, gcPauseNs uint64
	var poolHits, poolMisses int64
	var pool0, pool1 bufpool.PoolStats
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	for n := 0; n < 2*minIterations || time.Since(start) < deadline; n++ {
		record := n%2 == 1
		if record {
			runtime.ReadMemStats(&ms0)
			pool0 = bufpool.Stats()
		}
		o, ok := b.iterate(record, false)
		if b.hung {
			break
		}
		if !ok {
			continue
		}
		if !record {
			plainMs = append(plainMs, float64(o.wallNs)/1e6)
			continue
		}
		pool1 = bufpool.Stats()
		runtime.ReadMemStats(&ms1)
		tracedMs = append(tracedMs, float64(o.wallNs)/1e6)
		gcCycles += uint64(ms1.NumGC - ms0.NumGC)
		gcPauseNs += ms1.PauseTotalNs - ms0.PauseTotalNs
		poolHits += pool1.Hits - pool0.Hits
		poolMisses += pool1.Misses - pool0.Misses
		add("bufpool.oversize", "count", float64(pool1.Oversize-pool0.Oversize))

		lt := splitLayers(t.last)
		for k := spOpen; k <= spExtract; k++ {
			add(k.String()+"_ms", "ms", lt.phaseMs[k])
		}
		add("dstream.write_self_ms", "ms", lt.writeSelf)
		add("dstream.read_self_ms", "ms", lt.readSelf)
		add("pfs.write_calls", "count", float64(lt.calls[spPfsWrite]))
		add("pfs.write_bytes", "B", float64(lt.bytes[spPfsWrite]))
		add("pfs.write_ms", "ms", lt.busyMs[spPfsWrite])
		add("pfs.read_calls", "count", float64(lt.calls[spPfsRead]))
		add("pfs.read_bytes", "B", float64(lt.bytes[spPfsRead]))
		add("pfs.read_ms", "ms", lt.busyMs[spPfsRead])
		add("pfs.io_ops", "count", float64(o.ioOps))
		add("comm.send_calls", "count", float64(lt.calls[spSend]))
		add("comm.send_bytes", "B", float64(lt.bytes[spSend]))
		add("comm.send_ms", "ms", lt.busyMs[spSend])
		add("comm.recv_calls", "count", float64(lt.calls[spRecv]))
		add("comm.recv_wait_ms", "ms", lt.busyMs[spRecv])
		add("server.calls", "count", float64(lt.calls[spCall]))
		add("server.call_ms", "ms", lt.busyMs[spCall])
		store := 0.0
		if b.name == "daemon_restart" {
			// On the daemon workload the pfs wrapper sits on the daemon's
			// store: its calls are the server's storage time.
			store = lt.busyMs[spPfsRead] + lt.busyMs[spPfsWrite] + lt.busyMs[spPfsMeta]
		}
		add("server.store_ms", "ms", store)
		add("server.wire_ms", "ms", lt.busyMs[spCall]-store)
		add("plan.switches", "count", float64(o.switches))
	}
	if !b.hung {
		b.shut()
	}
	spans := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.name, seed))
	if err := t.writeJSON(spans); err != nil {
		b.fail("span dump", err)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: %s: spans written to %s\n", b.name, spans)
	}
	if len(tracedMs) == 0 || len(plainMs) == 0 {
		return
	}
	set := func(name string, v float64, unit string) { b.res.Metrics[name] = metric{v, unit} }
	for name, s := range per {
		set(name, median(s.vals), s.unit)
	}
	hitRatio := 0.0
	if poolHits+poolMisses > 0 {
		hitRatio = float64(poolHits) / float64(poolHits+poolMisses)
	}
	set("bufpool.hit_ratio", hitRatio, "ratio")
	iters := float64(len(tracedMs))
	set("gc.cycles", float64(gcCycles)/iters, "count")
	set("gc.pause_ms", float64(gcPauseNs)/1e6/iters, "ms")
	set("pfs.vtime_carryover_s", b.lastVirt-b.virtual, "sim_s")
	set("trace.overhead_ratio", quantile(tracedMs, 0.5)/quantile(plainMs, 0.5), "ratio")
	set("stored_B_per_payload_B", float64(wrapped.stored)/payload, "B/B")
	set("failed_ratio", float64(b.res.Failed)/float64(b.res.Attempted), "ratio")
	set("iter.samples", float64(len(plainMs)), "count")
	set("iter.traced_samples", iters, "count")
}

// sameFingerprint compares what two iterations produced.
func sameFingerprint(a, b outcome) error {
	switch {
	case a.digest != b.digest || a.image != b.image || a.stored != b.stored:
		return fmt.Errorf("data differs: digest %#x/%#x, image %#x/%#x, stored %d/%d",
			a.digest, b.digest, a.image, b.image, a.stored, b.stored)
	case a.virtual != b.virtual:
		return fmt.Errorf("virtual makespan differs: %.9g/%.9g", a.virtual, b.virtual)
	case a.msgs != b.msgs || a.msgBytes != b.msgBytes || a.ioOps != b.ioOps:
		return fmt.Errorf("traffic differs: messages %d/%d, message bytes %d/%d, I/O ops %d/%d",
			a.msgs, b.msgs, a.msgBytes, b.msgBytes, a.ioOps, b.ioOps)
	case fmt.Sprint(a.planSigs) != fmt.Sprint(b.planSigs):
		return fmt.Errorf("plan signatures differ: %x/%x", a.planSigs, b.planSigs)
	}
	return nil
}

// startHeapSampler polls the heap in use until the returned function is
// called; that function stops the poller and returns the highest value.
func startHeapSampler() func() uint64 {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var peak uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(stop)
		wg.Wait()
		return peak
	}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
