package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ref/internal/cobb"
	"ref/internal/hier"
	"ref/internal/obs"
	"ref/internal/serve"
)

const (
	// rampInflight bounds concurrent joins during set-up: two full
	// batches, so every ramp epoch fills to MaxBatch.
	rampInflight = 2048
	// loopInflight bounds concurrently outstanding open-loop ops. A
	// resummation stall queues ~1k ops at 2000 ops/s; past the bound the
	// generator falls behind, which bench.lag_p99_ms reports.
	loopInflight = 8192
	maxBatch     = 1024
	epochWindow  = 10 * time.Millisecond
)

// bench is one server under test together with the generator's mirror of
// every agent the server has acknowledged.
type bench struct {
	w       workload
	srv     *serve.Server
	httpSrv *serve.HTTPServer
	mirror  *mirror
	// tracer receives the benchmark's spans when the run is traced.
	tracer *obs.Tracer
}

// setUp boots a server, declares the tenants tree, starts the HTTP
// listener when the workload reads over HTTP, and ramps pop in. It
// returns the wall time from boot to the first timed op.
func setUp(w workload, pop []agentSpec, flightRecords int) (*bench, time.Duration, error) {
	start := time.Now()
	cfg := serve.Config{
		Capacity:       capacity,
		Window:         epochWindow,
		MaxBatch:       maxBatch,
		Parallelism:    runtime.GOMAXPROCS(0),
		Shards:         w.shards,
		AuditSample:    w.auditSample,
		FlightRecorder: flightRecords,
	}
	if w.tenants {
		cfg.CreditHalfLife = 30 * time.Second
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	b := &bench{w: w, srv: srv, mirror: newMirror(len(pop))}
	if w.tenants {
		orgs, leaves := treeQueues()
		for _, level := range [][]hier.QueueConfig{orgs, leaves} {
			if err := b.declare(level); err != nil {
				b.close()
				return nil, 0, err
			}
		}
	}
	if w.httpReaders > 0 {
		if b.httpSrv, err = srv.Serve("127.0.0.1:0"); err != nil {
			b.close()
			return nil, 0, err
		}
	}
	if err := b.ramp(pop); err != nil {
		b.close()
		return nil, 0, err
	}
	return b, time.Since(start), nil
}

// declare upserts one tree level concurrently, so it lands in one epoch.
func (b *bench) declare(level []hier.QueueConfig) error {
	errs := make([]error, len(level))
	var wg sync.WaitGroup
	for i, q := range level {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, aerr := b.srv.QueueUpsert(context.Background(), q); aerr != nil {
				errs[i] = fmt.Errorf("declare queue %s: %w", q.Name, aerr)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// ramp joins pop through the Go API, rampInflight at a time.
func (b *bench) ramp(pop []agentSpec) error {
	sem := make(chan struct{}, rampInflight)
	var wg sync.WaitGroup
	var failed atomic.Int64
	var firstErr atomic.Pointer[error]
	for i := range pop {
		a := &pop[i]
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			if _, err := b.join(a.name, a.elast, a.leaf); err != nil {
				failed.Add(1)
				firstErr.CompareAndSwap(nil, &err)
				return
			}
			b.mirror.add(a.name, a.elast, a.leaf)
		}()
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("ramp: %d of %d joins failed, first: %w", n, len(pop), *firstErr.Load())
	}
	return nil
}

// close drains the server and stops the HTTP listener.
func (b *bench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if b.httpSrv != nil {
		_ = b.httpSrv.Shutdown(ctx) // teardown; a slow keep-alive close is not a finding
	}
	_ = b.srv.Close(ctx) // every op has completed, so the drain has nothing to flush
}

// apiErr converts the server's typed error into an error value, keeping
// a nil *APIError nil.
func apiErr(e *serve.APIError) error {
	if e == nil {
		return nil
	}
	return e
}

func (b *bench) join(name string, elast []float64, leaf string) (uint64, error) {
	u, err := cobb.New(1, elast...)
	if err != nil {
		return 0, err
	}
	epoch, _, _, aerr := b.srv.Join(context.Background(),
		serve.WireAgent{Name: name, Alpha0: 1, Elasticities: elast, Queue: leaf}, u)
	return epoch, apiErr(aerr)
}

func (b *bench) update(name string, elast []float64, leaf string) (uint64, error) {
	u, err := cobb.New(1, elast...)
	if err != nil {
		return 0, err
	}
	epoch, _, _, aerr := b.srv.Update(context.Background(),
		serve.WireAgent{Name: name, Alpha0: 1, Elasticities: elast, Queue: leaf}, u)
	return epoch, apiErr(aerr)
}

// opRecord is one open-loop op, timed from its due time.
type opRecord struct {
	kind opKind
	// due, start and end are offsets from the phase start: when the op
	// was scheduled, when its call began, and when it returned.
	due, start, end time.Duration
	// epoch is the snapshot version of the acknowledgement (mutations).
	epoch uint64
	// fail is the error of a failed op, "" when it succeeded.
	fail string
	// miss marks a read whose agent left while it was in flight.
	miss bool
}

func (r opRecord) latency() time.Duration { return r.end - r.due }

// failCode names an error: the serve error code when it has one.
func failCode(err error) string {
	var aerr *serve.APIError
	if errors.As(err, &aerr) {
		return aerr.Code
	}
	return err.Error()
}

// openLoop issues rate·d scheduled ops, each at its due time whether or
// not earlier ones have completed, and waits for all of them.
func (b *bench) openLoop(sched *schedule, rate float64, d time.Duration, t0 time.Time) []opRecord {
	n := int(rate * d.Seconds())
	recs := make([]opRecord, n)
	sem := make(chan struct{}, loopInflight)
	var wg sync.WaitGroup
	for i := range recs {
		due := time.Duration(float64(i) * float64(time.Second) / rate)
		if wait := time.Until(t0.Add(due)); wait > 0 {
			time.Sleep(wait)
		}
		o := sched.next()
		name, kind := b.target(o, i)
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			recs[i] = b.do(kind, name, o, due, t0)
		}()
	}
	wg.Wait()
	return recs
}

// target resolves which agent op o acts on. Updates and leaves take the
// agent out of the idle set until they complete, so no two mutations
// race on one agent and the mirror stays exact; reads only peek. An
// empty idle set turns the op into a join.
func (b *bench) target(o op, i int) (string, opKind) {
	var name string
	ok := false
	switch o.kind {
	case opLeave, opUpdate:
		name, ok = b.mirror.take(o.pick)
	case opRead:
		name, ok = b.mirror.peek(o.pick)
	}
	if o.kind == opJoin || !ok {
		return fmt.Sprintf("j%07d", i), opJoin
	}
	return name, o.kind
}

// do runs one op against the Go API and settles the mirror.
func (b *bench) do(kind opKind, name string, o op, due time.Duration, t0 time.Time) opRecord {
	rec := opRecord{kind: kind, due: due, start: time.Since(t0)}
	var err error
	switch kind {
	case opJoin:
		if rec.epoch, err = b.join(name, o.elast, o.leaf); err == nil {
			b.mirror.add(name, o.elast, o.leaf)
		}
	case opUpdate:
		if rec.epoch, err = b.update(name, o.elast, o.move); err == nil {
			b.mirror.set(name, o.elast, o.move)
		}
		b.mirror.release(name)
	case opLeave:
		var aerr *serve.APIError
		if rec.epoch, aerr = b.srv.Leave(context.Background(), name); aerr == nil {
			b.mirror.remove(name)
		} else {
			err = aerr
			b.mirror.release(name)
		}
	case opRead:
		row := b.srv.AgentRow(name)
		switch {
		case row == nil:
			rec.miss = true
		case row.Agent.Name != name:
			err = fmt.Errorf("read %s answered for %s", name, row.Agent.Name)
		}
	}
	rec.end = time.Since(t0)
	if err != nil {
		rec.fail = failCode(err)
	}
	if b.tracer != nil {
		b.emitOp(rec, name, t0)
	}
	return rec
}

// callNames names the serve call each op kind makes.
var callNames = [numKinds]string{"serve.Join", "serve.Leave", "serve.Update", "serve.AgentRow"}

// emitOp records an op as a bench span from its due time to its
// acknowledgement, with the serve call as its child.
func (b *bench) emitOp(rec opRecord, name string, t0 time.Time) {
	root := b.tracer.NewID()
	child := &obs.Event{Parent: root, Name: callNames[rec.kind], Start: t0.Add(rec.start), Dur: rec.end - rec.start}
	child.SetAttrs(obs.Attr{Key: "epoch", Value: float64(rec.epoch)})
	b.tracer.Emit(child)
	b.tracer.Emit(&obs.Event{ID: root, Name: "bench." + kindNames[rec.kind], Start: t0.Add(rec.due), Dur: rec.end - rec.due})
}

// phase is what one timed phase measured.
type phase struct {
	ops   []opRecord
	reads []readRecord
	// d is the phase's configured length: ops are due and reads start
	// within [0, d).
	d time.Duration
	// wall is the phase length: from the first due time until the last
	// op and read completed.
	wall time.Duration
	// cpu is the process user+sys CPU time over the phase.
	cpu        time.Duration
	mem0, mem1 runtime.MemStats
	heapPeak   uint64
	// epoch0 and epoch1 are the live epochs when the phase started and
	// after its last op completed.
	epoch0, epoch1 uint64
	watch          watchResult
}

// completed counts the phase's ops and reads that did not fail.
func (p *phase) completed() int {
	n := 0
	for _, r := range p.ops {
		if r.fail == "" {
			n++
		}
	}
	for _, r := range p.reads {
		if r.fail == "" {
			n++
		}
	}
	return n
}

// timedPhase drives the workload for d: the open loop, plus the
// closed-loop HTTP readers when the workload has them.
func (b *bench) timedPhase(seed int64, d time.Duration) phase {
	p := phase{d: d}
	runtime.ReadMemStats(&p.mem0)
	cpu0 := cpuTime()
	stopWatch := make(chan struct{})
	watchDone := make(chan watchResult, 1)
	go func() { watchDone <- watchSnapshots(b.srv, stopWatch) }()
	peakDone := make(chan uint64, 1)
	go func() { peakDone <- heapPeak(stopWatch) }()

	p.epoch0 = b.srv.Current().Epoch
	t0 := time.Now()
	var readers sync.WaitGroup
	readRecs := make([][]readRecord, b.w.httpReaders)
	if b.w.httpReaders > 0 {
		client := newHTTPClient(b.w.httpReaders)
		defer client.CloseIdleConnections()
		for i := range readRecs {
			readers.Add(1)
			go func() {
				defer readers.Done()
				readRecs[i] = b.httpReader(client, seed, i, t0, d)
			}()
		}
	}
	p.ops = b.openLoop(newSchedule(b.w, seed), b.w.rate, d, t0)
	readers.Wait()
	p.wall = time.Since(t0)
	p.epoch1 = b.srv.Current().Epoch

	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&p.mem1)
	close(stopWatch)
	p.watch = <-watchDone
	p.heapPeak = <-peakDone
	for _, rs := range readRecs {
		p.reads = append(p.reads, rs...)
	}
	return p
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapPeak samples the live heap every 10ms until stop closes and
// returns the largest reading. runtime/metrics reads without stopping
// the world.
func heapPeak(stop <-chan struct{}) uint64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var peak uint64
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(sample)
		if sample[0].Value.Kind() == metrics.KindUint64 {
			peak = max(peak, sample[0].Value.Uint64())
		}
		select {
		case <-stop:
			return peak
		case <-tick.C:
		}
	}
}
