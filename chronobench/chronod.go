package main

// chronod-durable: an in-process chronod on a unix socket in a temporary
// state directory, driven by closed-loop clients. Each job is a
// write-heavy kvstore (redis, SET:GET 1:1) under Nomad; the client pauses
// it once past half its horizon, resumes it and polls it to done, so the
// daemon, engine Snapshot/Restore and the checkpoint envelope carry the
// latency. Every paused-and-resumed table must equal the table of the
// same spec run uninterrupted.
//
// The traced run adds RPC spans to a second round of the same jobs and
// then replays each spec's pause/resume in process — Engine.Snapshot,
// checkpoint.Save/Load, Engine.Restore and ResumeRun — since the daemon
// makes those calls internally.

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"chrono/internal/checkpoint"
	"chrono/internal/daemon"
	"chrono/internal/engine"
	"chrono/internal/report"
	"chrono/internal/simclock"
	"chrono/internal/workload"
)

const (
	chronodJobs       = 40 // enough for a p75 with ten jobs beyond it
	chronodClients    = 2
	chronodSpecs      = 4 // distinct specs the jobs cycle through
	chronodMaxActive  = 2
	chronodPagesPerGB = 512
	chronodDurS       = 600
	chronodSetups     = 15 // samples of daemon.New + Listen behind setup_s
	chronodBatch      = 20 // set-ups averaged in one sample
	chronodPoll       = 5 * time.Millisecond
)

func chronodSpec(seed uint64, k int) daemon.RunSpec {
	return daemon.RunSpec{
		Policy: "Nomad", Workload: "kvstore", Flavor: "redis", SetGet: "1:1",
		Seed: engineSeed(seed, k), DurationS: chronodDurS,
		FastGB: 64, SlowGB: 192, PagesPerGB: chronodPagesPerGB,
	}
}

// chronodSim is the in-process equivalent of a chronodSpec job.
func chronodSim(seed uint64, k int) simSpec {
	s := chronodSpec(seed, k)
	return simSpec{
		job:    fmt.Sprintf("replay/%d/%s", k, s.Policy),
		policy: s.Policy,
		cfg:    engine.Config{Seed: s.Seed, PagesPerGB: s.PagesPerGB, FastGB: 64, SlowGB: 192},
		mk: func() (workload.Workload, error) {
			return &workload.KVStore{Flavor: workload.Redis, StoreGB: 160, SetRatio: 1, GetRatio: 1, Mode: engine.BasePages}, nil
		},
		dur: simclock.FromSeconds(s.DurationS),
	}
}

// chronod is one hosted daemon, its Serve goroutine and a client.
type chronod struct {
	dir      string
	d        *daemon.Daemon
	l        net.Listener
	serving  sync.WaitGroup
	serveErr chan error // Serve's result; buffered so the goroutine never blocks
	cl       daemon.Client
}

// chronodDir is a fresh state directory with its config file and the
// socket path a daemon over it listens on.
type chronodDir struct{ dir, cfg, sock string }

// newChronodDir creates a state directory under root and writes its
// config.
func newChronodDir(root string) (chronodDir, error) {
	dir, err := os.MkdirTemp(root, "chronod-")
	if err != nil {
		return chronodDir{}, err
	}
	p := chronodDir{dir: dir, cfg: filepath.Join(dir, "config.json"), sock: filepath.Join(dir, "d.sock")}
	raw, _ := json.Marshal(daemon.Config{MaxActive: chronodMaxActive})
	if err := os.WriteFile(p.cfg, raw, 0o644); err != nil {
		_ = os.RemoveAll(dir) // best effort; the write error is the one to report
		return chronodDir{}, err
	}
	// The socket path is kept relative to the working directory: a unix
	// socket path is limited to about a hundred bytes.
	if wd, werr := os.Getwd(); werr == nil {
		if abs, aerr := filepath.Abs(p.sock); aerr == nil {
			if rel, rerr := filepath.Rel(wd, abs); rerr == nil {
				p.sock = rel
			}
		}
	}
	return p, nil
}

// open is the set-up being measured: daemon.New over the directory and
// daemon.Listen on its socket.
func (p chronodDir) open() (*daemon.Daemon, net.Listener, error) {
	d, err := daemon.New(filepath.Join(p.dir, "state"), p.cfg)
	if err != nil {
		return nil, nil, err
	}
	l, err := daemon.Listen(p.sock)
	if err != nil {
		d.Shutdown()
		return nil, nil, err
	}
	return d, l, nil
}

// serve starts serving an opened daemon and returns its handle.
func (p chronodDir) serve(d *daemon.Daemon, l net.Listener) *chronod {
	d.SetLogf(func(string, ...any) {})
	c := &chronod{dir: p.dir, d: d, l: l, serveErr: make(chan error, 1), cl: daemon.Client{Socket: p.sock, Timeout: time.Minute}}
	c.serving.Add(1)
	go func() {
		defer c.serving.Done()
		c.serveErr <- d.Serve(l)
	}()
	return c
}

// setupSample times chronodBatch set-ups — daemon.New and daemon.Listen
// — of a daemon over p, each closed and drained before the next, and
// returns the mean host time of one. A single set-up takes tens of
// microseconds, so a sample averages a batch. Reusing one directory keeps
// the file-system churn of the samples to one socket per set-up.
func (p chronodDir) setupSample() (float64, error) {
	runtime.GC()
	var total time.Duration
	for i := 0; i < chronodBatch; i++ {
		t0 := time.Now() //chrono:wallclock setup timing is host-side
		d, l, err := p.open()
		total += time.Since(t0) //chrono:wallclock setup timing is host-side
		if err != nil {
			return 0, err
		}
		lerr := l.Close()
		d.Shutdown()
		if lerr != nil {
			return 0, fmt.Errorf("close listener: %w", lerr)
		}
	}
	return total.Seconds() / chronodBatch, nil
}

// stop closes the listener, drains the daemon, waits for Serve to return
// and removes the state directory and socket. It fails when a run was
// left in a non-terminal state.
func (c *chronod) stop() error {
	lerr := c.l.Close()
	c.d.Shutdown()
	c.serving.Wait()
	serr := <-c.serveErr
	var derr error
	for _, r := range c.d.List().Runs {
		if r.State != daemon.StateDone && r.State != daemon.StateFailed && r.State != daemon.StateCancelled {
			derr = fmt.Errorf("daemon shutdown left run %s %s", r.ID, r.State)
			break
		}
	}
	rerr := os.RemoveAll(c.dir)
	for _, err := range []error{serr, derr, rerr} {
		if err != nil {
			return err
		}
	}
	if lerr != nil {
		return fmt.Errorf("close listener: %w", lerr)
	}
	return nil
}

// rpc performs one request under a daemon.rpc span. An application-level
// error in the response is returned as an error.
func (c *chronod) rpc(tr *tracer, job string, parent int, req daemon.Request) (daemon.Response, error) {
	id := tr.begin("daemon.rpc", job, parent)
	resp, err := c.cl.Do(req)
	tr.end(id)
	if err == nil && !resp.OK {
		err = fmt.Errorf("%s %s: %s", req.Op, req.ID, resp.Error)
	}
	return resp, err
}

// waitState polls a run's status until cond holds or the run is
// terminal, and returns the last response.
func (c *chronod) waitState(tr *tracer, job string, parent int, id string, cond func(daemon.RunInfo) bool) (daemon.Response, error) {
	for {
		resp, err := c.rpc(tr, job, parent, daemon.Request{Op: daemon.OpStatus, ID: id})
		if err != nil {
			return resp, err
		}
		st := resp.Run.State
		if cond(*resp.Run) || st == daemon.StateDone || st == daemon.StateFailed || st == daemon.StateCancelled {
			return resp, nil
		}
		time.Sleep(chronodPoll) //chrono:wallclock the client's polling interval is host-side
	}
}

// jobRecord is one closed-loop job as its client saw it.
type jobRecord struct {
	spec                     int
	submit, done             time.Time
	queueWait, pause, resume float64
	paused                   bool
	state, table             string
	err                      error
}

// job submits spec k, pauses it past half its horizon, resumes it and
// waits for it to finish.
func (c *chronod) job(seed uint64, k int, tr *tracer, label string) (rec jobRecord) {
	rec.spec = k
	root := tr.begin("daemon.job", label, 0)
	defer tr.end(root)
	rec.submit = time.Now()                  //chrono:wallclock job latency is host-side
	defer func() { rec.done = time.Now() }() //chrono:wallclock job latency is host-side
	spec := chronodSpec(seed, k)
	resp, err := c.rpc(tr, label, root, daemon.Request{Op: daemon.OpSubmit, Spec: &spec})
	if err != nil {
		rec.err = err // includes a load-shed rejection
		return rec
	}
	id := resp.ID
	running := func(r daemon.RunInfo) bool { return r.State == daemon.StateRunning }

	qw := tr.begin("daemon.queue_wait", label, root)
	if resp.Run.State == daemon.StateQueued {
		resp, err = c.waitState(tr, label, qw, id, running)
	}
	rec.queueWait = time.Since(rec.submit).Seconds() //chrono:wallclock job latency is host-side
	tr.end(qw)

	if err == nil && resp.Run.State == daemon.StateRunning {
		resp, err = c.waitState(tr, label, root, id, func(r daemon.RunInfo) bool { return r.SimNowS >= spec.DurationS/2 })
	}
	if err == nil && resp.Run.State == daemon.StateRunning {
		rec.paused, err = c.pauseResume(tr, label, root, id, &rec)
	}
	if err == nil {
		resp, err = c.waitState(tr, label, root, id, func(daemon.RunInfo) bool { return false })
	}
	if err != nil {
		rec.err = err
		return rec
	}
	rec.state, rec.table = resp.Run.State, resp.Table
	return rec
}

// pauseResume pauses a running job, waits until it is parked, resumes it
// and waits until it runs again. paused is false when the job finished
// before the pause landed.
func (c *chronod) pauseResume(tr *tracer, label string, root int, id string, rec *jobRecord) (paused bool, err error) {
	t0 := time.Now() //chrono:wallclock pause latency is host-side
	ps := tr.begin("daemon.pause", label, root)
	_, err = c.rpc(tr, label, ps, daemon.Request{Op: daemon.OpPause, ID: id})
	rec.pause = time.Since(t0).Seconds() //chrono:wallclock pause latency is host-side
	tr.end(ps)
	if err != nil {
		resp, serr := c.rpc(tr, label, root, daemon.Request{Op: daemon.OpStatus, ID: id})
		if serr == nil && resp.Run.State == daemon.StateDone {
			return false, nil // finished before the pause landed
		}
		return false, err
	}
	resp, err := c.waitState(tr, label, root, id, func(r daemon.RunInfo) bool { return r.State == daemon.StatePaused })
	if err != nil {
		return true, err
	}
	if resp.Run.State != daemon.StatePaused {
		return true, fmt.Errorf("run %s is %s after pause", id, resp.Run.State)
	}
	t1 := time.Now() //chrono:wallclock resume latency is host-side
	rs := tr.begin("daemon.resume", label, root)
	defer tr.end(rs)
	if _, err = c.rpc(tr, label, rs, daemon.Request{Op: daemon.OpResume, ID: id}); err != nil {
		return true, err
	}
	_, err = c.waitState(tr, label, rs, id, func(r daemon.RunInfo) bool { return r.State == daemon.StateRunning })
	rec.resume = time.Since(t1).Seconds() //chrono:wallclock resume latency is host-side
	return true, err
}

// round runs n jobs from chronodClients closed-loop clients and
// returns them in job order with the wall time from first submit to
// last done.
func (c *chronod) round(seed uint64, n int, tr *tracer) ([]jobRecord, float64) {
	ctrs := make([]*tracer, chronodClients)
	for i := range ctrs {
		ctrs[i] = tr.fork()
	}
	perClient := make([][]jobRecord, chronodClients)
	var wg sync.WaitGroup
	for ci := 0; ci < chronodClients; ci++ {
		ci := ci
		wg.Add(1)
		go func() {
			defer wg.Done()
			var recs []jobRecord
			for j := ci; j < n; j += chronodClients {
				recs = append(recs, c.job(seed, j%chronodSpecs, ctrs[ci], fmt.Sprintf("job%02d", j)))
			}
			perClient[ci] = recs
		}()
	}
	wg.Wait()
	root := tr.begin("chronod.round", "chronod", 0)
	recs := make([]jobRecord, 0, n)
	for j := 0; j < n; j++ {
		recs = append(recs, perClient[j%chronodClients][j/chronodClients])
	}
	first, last := recs[0].submit, recs[0].done
	for _, r := range recs {
		if r.submit.Before(first) {
			first = r.submit
		}
		if r.done.After(last) {
			last = r.done
		}
	}
	if tr != nil {
		tr.spans[root-1].Start = int64(first.Sub(tr.origin))
		tr.spans[root-1].End = int64(last.Sub(tr.origin))
		for _, ct := range ctrs {
			tr.adopt(ct, root)
		}
	}
	return recs, last.Sub(first).Seconds()
}

// references runs every spec once, uninterrupted, through the daemon and
// returns the final tables by spec.
func (c *chronod) references(seed uint64) ([]string, error) {
	ids := make([]string, chronodSpecs)
	for k := range ids {
		spec := chronodSpec(seed, k)
		resp, err := c.rpc(nil, "", 0, daemon.Request{Op: daemon.OpSubmit, Spec: &spec})
		if err != nil {
			return nil, err
		}
		ids[k] = resp.ID
	}
	tables := make([]string, chronodSpecs)
	for k, id := range ids {
		resp, err := c.waitState(nil, "", 0, id, func(daemon.RunInfo) bool { return false })
		if err != nil {
			return nil, err
		}
		if resp.Run.State != daemon.StateDone {
			return nil, fmt.Errorf("reference run %s ended %s: %s", id, resp.Run.State, resp.Run.Error)
		}
		tables[k] = resp.Table
	}
	return tables, nil
}

// checkJobs records one check per job: it finished, and its table equals
// the uninterrupted reference of its spec.
func checkJobs(o *outcome, recs []jobRecord, refs []string) (paused int) {
	for j, r := range recs {
		o.attempted++
		switch {
		case r.err != nil:
			o.failed++
			o.problems = append(o.problems, fmt.Sprintf("job %d: %v", j, r.err))
		case r.state != daemon.StateDone:
			o.failed++
			o.problems = append(o.problems, fmt.Sprintf("job %d ended %s", j, r.state))
		case r.table != refs[r.spec]:
			o.failed++
			o.problems = append(o.problems, fmt.Sprintf("job %d (spec %d): paused-and-resumed table differs from the uninterrupted run", j, r.spec))
		}
		if r.paused {
			paused++
		}
	}
	return paused
}

// chronodSession brackets a workload body with daemon set-up, the
// uninterrupted references, and the hygiene checks at the end.
func chronodSession(c runConfig, o *outcome, body func(d *chronod, refs []string)) (setups []float64) {
	if err := os.MkdirAll(c.workDir, 0o755); err != nil {
		o.fail(err)
		return nil
	}
	// Timed set-ups over the state directory; then the daemon that
	// serves the session opens over it too.
	p, err := newChronodDir(c.workDir)
	if err != nil {
		o.fail(err)
		return nil
	}
	for i := 0; i < chronodSetups; i++ {
		s, err := p.setupSample()
		if err != nil {
			_ = os.RemoveAll(p.dir) // best effort; the set-up error is the one to report
			o.fail(err)
			return nil
		}
		setups = append(setups, s)
	}
	dm, l, err := p.open()
	if err != nil {
		_ = os.RemoveAll(p.dir) // best effort; the set-up error is the one to report
		o.fail(err)
		return nil
	}
	d := p.serve(dm, l)
	refs, err := d.references(c.seed)
	o.attempted += chronodSpecs
	if err != nil {
		o.fail(err)
	} else {
		dg := newDigest()
		for k, t := range refs {
			dg.add(fmt.Sprintf("spec%d", k), t)
		}
		o.digest = dg.sum()
		body(d, refs)
	}
	// Hygiene: no abandoned run goroutines, a draining shutdown, and the
	// state directory and socket removed.
	resp, err := d.rpc(nil, "", 0, daemon.Request{Op: daemon.OpPing})
	o.check(err == nil && resp.Abandoned == 0, "ping: abandoned goroutines %d (err %v)", resp.Abandoned, err)
	err = d.stop()
	o.check(err == nil, "daemon shutdown: %v", err)
	_, statErr := os.Stat(d.dir)
	o.check(os.IsNotExist(statErr), "state directory %s was not removed", d.dir)
	return setups
}

func chronodEndToEnd(c runConfig, o *outcome) {
	var walls, jobs, simRate, jobRate []float64
	paused := 0
	setups := chronodSession(c, o, func(d *chronod, refs []string) {
		_ = repeat(c.budget, func() error {
			recs, wall := d.round(c.seed, chronodJobs, nil)
			paused += checkJobs(o, recs, refs)
			walls = append(walls, wall)
			for _, r := range recs {
				jobs = append(jobs, r.done.Sub(r.submit).Seconds())
			}
			simRate = append(simRate, float64(len(recs))*chronodDurS/wall)
			jobRate = append(jobRate, float64(len(recs))/wall)
			return nil
		})
	})
	if o.digest == "" {
		return
	}
	o.samples = fmt.Sprintf("%d rounds, %d jobs (%d paused and resumed)", len(walls), len(jobs), paused)
	o.endToEnd(setups, walls, simRate, jobs, jobRate)
}

func chronodTraced(c runConfig, o *outcome) {
	tr, acc := newTracer(), newLayers()
	var plainWall, tracedWall float64
	var rt rtDelta
	chronodSession(c, o, func(d *chronod, refs []string) {
		recs, wall := d.round(c.seed, chronodJobs, nil)
		checkJobs(o, recs, refs)
		plainWall = wall
		rt0 := readRuntime()
		recs, tracedWall = d.round(c.seed, chronodJobs, tr)
		rt = rt0.to(readRuntime())
		checkJobs(o, recs, refs)
		for _, r := range recs {
			acc.queueWaitS = append(acc.queueWaitS, r.queueWait)
			if r.paused {
				acc.pauseS = append(acc.pauseS, r.pause)
				acc.resumeS = append(acc.resumeS, r.resume)
			}
		}
		for k := 0; k < chronodSpecs; k++ {
			o.attempted++
			if err := safely(func() error { return replay(c, k, refs[k], tr, acc) }); err != nil {
				o.failed++
				o.problems = append(o.problems, err.Error())
			}
		}
	})
	if o.digest == "" {
		return
	}
	o.finishTraced(tr, acc, rt, tracedWall, plainWall, c)
}

// ckptPayload mirrors the daemon's engine checkpoint payload, so the
// replayed envelope has the daemon's size and shape.
type ckptPayload struct {
	Spec   daemon.RunSpec      `json:"spec"`
	Policy string              `json:"policy"`
	State  *engine.EngineState `json:"state"`
}

// replay runs spec k in process twice: uninterrupted, and paused at half
// its horizon through Engine.Snapshot, checkpoint.Save/Load,
// Engine.Restore and ResumeRun, with spans around each call. The two
// must finish with identical simulated outputs, and the uninterrupted
// run must report the hint-fault count of the daemon's table for the
// spec (refTable), so the replay simulates the job the daemon ran.
func replay(c runConfig, k int, refTable string, tr *tracer, acc *layers) error {
	sp := chronodSim(c.seed, k)
	b, err := setup(sp, nil, 0)
	if err != nil {
		return err
	}
	m, _ := b.run(sp, nil, 0, nil)
	want := newDigest()
	want.addRun(sp.job, b.e, b.w, m)
	row := report.NewTable("", "Metric", "Value")
	row.AddRow("Hint faults", m.Faults)
	if !strings.Contains(refTable, "Hint faults") || !strings.Contains(refTable, " "+row.Rows[0][1]+"\n") {
		return fmt.Errorf("%s: in-process run has %s hint faults, which the daemon's table does not show:\n%s", sp.job, row.Rows[0][1], refTable)
	}

	path := filepath.Join(c.workDir, fmt.Sprintf("replay-%d-%d.ckpt", os.Getpid(), k))
	defer func() { _ = os.Remove(path) }() // absent when the pause failed
	root := tr.begin("chronod.replay", sp.job, 0)
	defer tr.end(root)
	first, err := setup(sp, tr, root)
	if err != nil {
		return err
	}
	var pauseErr error
	paused := false
	half := simclock.Time(sp.dur / 2)
	_, runS := first.run(sp, tr, root, func(parent int) {
		if paused || first.e.Clock().Now() < half {
			return
		}
		paused = true
		id := tr.begin("engine.snapshot", sp.job, parent)
		st, err := first.e.Snapshot()
		tr.end(id)
		if err == nil {
			id = tr.begin("checkpoint.save", sp.job, parent)
			err = checkpoint.Save(path, ckptPayload{Spec: chronodSpec(c.seed, k), Policy: sp.policy, State: st})
			tr.end(id)
		}
		pauseErr = err
		first.e.Clock().Stop()
	})
	acc.addRun(sp.policy, runS, nil, 0)
	if pauseErr != nil || !paused {
		return fmt.Errorf("%s: pause at half horizon failed (paused %v): %v", sp.job, paused, pauseErr)
	}
	if fi, err := os.Stat(path); err == nil {
		acc.ckptBytes = append(acc.ckptBytes, float64(fi.Size()))
	}

	var ck ckptPayload
	id := tr.begin("checkpoint.load", sp.job, root)
	err = checkpoint.Load(path, &ck)
	tr.end(id)
	if err != nil {
		return err
	}
	second, err := setup(sp, tr, root)
	if err != nil {
		return err
	}
	id = tr.begin("engine.restore", sp.job, root)
	err = second.e.Restore(ck.State)
	tr.end(id)
	if err != nil {
		return err
	}
	t0 := time.Now() //chrono:wallclock run timing is host-side
	id = tr.begin("engine.run", sp.job, root)
	h := tr.hookEngine(second.e, sp.job, id, nil)
	m = second.e.ResumeRun()
	h.close(second.e)
	tr.end(id)
	acc.addRun(sp.policy, time.Since(t0).Seconds(), m, second.e.Clock().Fired()) //chrono:wallclock run timing is host-side
	acc.pages += int64(len(first.e.Pages()) + len(second.e.Pages()))

	got := newDigest()
	got.addRun(sp.job, second.e, second.w, m)
	if got.sum() != want.sum() {
		return fmt.Errorf("%s: paused-and-resumed replay digest %s differs from the uninterrupted run %s", sp.job, got.sum(), want.sum())
	}
	return nil
}
