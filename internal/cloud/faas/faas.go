// Package faas simulates a "scaled-by-request" Function-as-a-Service
// platform modelled on AWS Lambda (paper §II-A). It reproduces the service
// behaviours FSD-Inference depends on:
//
//   - memory-proportional vCPU allocation with a configurable cap,
//   - cold starts (seeded, deterministic jitter) and a warm-instance pool,
//   - hard runtime limits (15 minutes) enforced by killing the instance,
//   - hard memory limits enforced against instance-tracked allocations,
//   - invocation payload caps for synchronous and event (async) invokes,
//   - per-invocation and per-GB-second billing.
//
// Handlers run as simulation Procs; real computation executes inside the
// handler while virtual time is charged through the Ctx helpers (Compute,
// Serialize, ...) using the calibrated perf.Model.
package faas

import (
	"fmt"
	"math/rand"
	"time"

	"fsdinference/internal/cloud/perf"
	"fsdinference/internal/cloud/usage"
	"fsdinference/internal/sim"
)

// Config holds platform-wide behaviour and limits.
type Config struct {
	// ColdStart is the mean cold-start delay (container provisioning +
	// runtime init). Actual delays get ±20% deterministic seeded jitter.
	ColdStart time.Duration
	// WarmStart is the invoke-to-running delay for a warm instance.
	WarmStart time.Duration
	// InvokeAPILatency is the caller-side latency of one Invoke API call.
	InvokeAPILatency time.Duration
	// InvokeCPUSeconds is the caller-side CPU work (in single-vCPU
	// seconds) of issuing one Invoke API call — request signing, TLS and
	// serialization. On memory-starved instances (a 128 MB coordinator
	// at ~0.07 vCPU) each call takes hundreds of milliseconds, which is
	// why a centralised launch loop is slow and the paper's hierarchical
	// worker_invoke_children tree wins (§II-B, §III).
	InvokeCPUSeconds float64
	// WarmKeep is how long an idle instance stays warm.
	WarmKeep time.Duration

	// MaxMemoryMB is the platform memory cap (10,240 MB on Lambda).
	MaxMemoryMB int
	// MinMemoryMB is the platform memory floor (128 MB on Lambda).
	MinMemoryMB int
	// MaxTimeout is the platform runtime cap (15 minutes on Lambda).
	MaxTimeout time.Duration
	// SyncPayloadLimit and AsyncPayloadLimit cap request payload sizes
	// (6 MB and 256 KB on Lambda).
	SyncPayloadLimit  int
	AsyncPayloadLimit int
	// MaxResponseBytes caps synchronous response payloads (6 MB).
	MaxResponseBytes int
	// ConcurrencyLimit caps simultaneously running instances
	// (account-level 1,000 on Lambda by default).
	ConcurrencyLimit int

	// Perf is the calibrated compute performance model.
	Perf perf.Model
	// Seed drives deterministic cold-start jitter.
	Seed int64
}

// DefaultConfig returns Lambda-like defaults. Cold start reflects a Python
// runtime importing numpy/scipy-sized dependencies.
func DefaultConfig() Config {
	return Config{
		ColdStart:         600 * time.Millisecond,
		WarmStart:         15 * time.Millisecond,
		InvokeAPILatency:  25 * time.Millisecond,
		InvokeCPUSeconds:  0.012,
		WarmKeep:          10 * time.Minute,
		MaxMemoryMB:       10240,
		MinMemoryMB:       128,
		MaxTimeout:        15 * time.Minute,
		SyncPayloadLimit:  6 * 1024 * 1024,
		AsyncPayloadLimit: 256 * 1024,
		MaxResponseBytes:  6 * 1024 * 1024,
		ConcurrencyLimit:  1000,
		Perf:              perf.Default(),
		Seed:              1,
	}
}

// Handler is a function body. It runs in a fresh (or warm) instance and may
// use ctx to charge compute time, allocate tracked memory and reach other
// simulated services.
type Handler func(ctx *Ctx, payload []byte) ([]byte, error)

// FunctionConfig describes one registered function.
type FunctionConfig struct {
	Name     string
	MemoryMB int
	Timeout  time.Duration
	Handler  Handler
}

// Platform is a simulated FaaS service.
type Platform struct {
	k     *sim.Kernel
	meter *usage.Meter
	cfg   Config

	fns  map[string]*function
	live int
	// PeakConcurrency records the maximum simultaneous instances seen.
	PeakConcurrency int

	// ColdStarts and WarmStarts count instance launches by kind.
	ColdStarts int
	WarmStarts int
}

type function struct {
	cfg  FunctionConfig
	warm []time.Duration // times at which idle warm instances became free
	// rng drives this function's cold-start jitter. It is scoped per
	// function (not platform-wide) so a function's jitter sequence depends
	// only on its own invocation order, never on how other functions'
	// launches interleave with it, so adding or removing another
	// function's traffic leaves this one's timeline unchanged.
	rng *rand.Rand
}

// New returns a Platform on kernel k metering into meter.
func New(k *sim.Kernel, meter *usage.Meter, cfg Config) *Platform {
	return &Platform{
		k:     k,
		meter: meter,
		cfg:   cfg,
		fns:   make(map[string]*function),
	}
}

// Config returns the platform configuration.
func (pl *Platform) Config() Config { return pl.cfg }

// Register registers a function, validating its configuration against the
// platform limits.
func (pl *Platform) Register(fc FunctionConfig) error {
	if fc.Name == "" {
		return fmt.Errorf("faas: function name required")
	}
	if _, ok := pl.fns[fc.Name]; ok {
		return fmt.Errorf("faas: function %q already registered", fc.Name)
	}
	if fc.MemoryMB < pl.cfg.MinMemoryMB || fc.MemoryMB > pl.cfg.MaxMemoryMB {
		return fmt.Errorf("faas: function %q memory %d MB outside [%d, %d]",
			fc.Name, fc.MemoryMB, pl.cfg.MinMemoryMB, pl.cfg.MaxMemoryMB)
	}
	if fc.Timeout <= 0 || fc.Timeout > pl.cfg.MaxTimeout {
		return fmt.Errorf("faas: function %q timeout %v outside (0, %v]",
			fc.Name, fc.Timeout, pl.cfg.MaxTimeout)
	}
	if fc.Handler == nil {
		return fmt.Errorf("faas: function %q has no handler", fc.Name)
	}
	pl.fns[fc.Name] = &function{cfg: fc, rng: rand.New(rand.NewSource(pl.cfg.Seed))}
	return nil
}

// Future is the pending result of an invocation.
type Future struct {
	done   bool
	result []byte
	err    error
	cond   *sim.Cond
}

// Done reports whether the invocation has completed.
func (f *Future) Done() bool { return f.done }

// Wait blocks p until the invocation completes, then returns its response
// payload and error.
func (f *Future) Wait(p *sim.Proc) ([]byte, error) {
	for !f.done {
		f.cond.Wait(p)
	}
	return f.result, f.err
}

func (f *Future) finish(res []byte, err error) {
	f.done = true
	f.result = res
	f.err = err
	f.cond.Broadcast()
}

// Invoke performs a synchronous (RequestResponse) invocation from Proc p.
// The returned Future completes with the handler's response. The caller is
// charged the invoke API latency.
func (pl *Platform) Invoke(p *sim.Proc, name string, payload []byte) (*Future, error) {
	if len(payload) > pl.cfg.SyncPayloadLimit {
		return nil, fmt.Errorf("faas: sync payload %d bytes exceeds limit %d", len(payload), pl.cfg.SyncPayloadLimit)
	}
	return pl.invoke(p, name, payload)
}

// InvokeAsync performs an event (asynchronous) invocation. The caller pays
// only the API latency; the Future is still usable to observe completion.
func (pl *Platform) InvokeAsync(p *sim.Proc, name string, payload []byte) (*Future, error) {
	if len(payload) > pl.cfg.AsyncPayloadLimit {
		return nil, fmt.Errorf("faas: async payload %d bytes exceeds limit %d", len(payload), pl.cfg.AsyncPayloadLimit)
	}
	return pl.invoke(p, name, payload)
}

func (pl *Platform) invoke(p *sim.Proc, name string, payload []byte) (*Future, error) {
	fn, ok := pl.fns[name]
	if !ok {
		return nil, fmt.Errorf("faas: function %q not registered", name)
	}
	if pl.live >= pl.cfg.ConcurrencyLimit {
		return nil, fmt.Errorf("faas: concurrency limit %d reached", pl.cfg.ConcurrencyLimit)
	}
	p.Sleep(pl.cfg.InvokeAPILatency)
	pl.meter.LambdaInvocations++

	fut := &Future{cond: sim.NewCond(pl.k)}

	// Warm instance available?
	start := pl.cfg.ColdStart
	warm := false
	now := pl.k.Now()
	// Drop expired warm instances.
	keep := fn.warm[:0]
	for _, freedAt := range fn.warm {
		if now-freedAt <= pl.cfg.WarmKeep {
			keep = append(keep, freedAt)
		}
	}
	fn.warm = keep
	if len(fn.warm) > 0 {
		fn.warm = fn.warm[:len(fn.warm)-1]
		start = pl.cfg.WarmStart
		warm = true
		pl.WarmStarts++
	} else {
		jitter := 0.8 + 0.4*fn.rng.Float64()
		start = time.Duration(float64(start) * jitter)
		pl.ColdStarts++
	}

	pl.live++
	if pl.live > pl.PeakConcurrency {
		pl.PeakConcurrency = pl.live
	}

	pl.k.GoAfter(start, "faas:"+name, func(hp *sim.Proc) {
		pl.runInstance(hp, fn, fut, payload, warm)
	})
	return fut, nil
}

func (pl *Platform) runInstance(hp *sim.Proc, fn *function, fut *Future, payload []byte, warm bool) {
	ctx := &Ctx{
		P:        hp,
		pl:       pl,
		fn:       fn,
		memLimit: int64(fn.cfg.MemoryMB) * 1024 * 1024,
		vcpus:    pl.cfg.Perf.VCPUs(fn.cfg.MemoryMB),
		started:  hp.Now(),
		deadline: hp.Now() + fn.cfg.Timeout,
		Warm:     warm,
	}

	finished := false
	var watchdog *sim.Timer
	finish := func(res []byte, err error) {
		if finished {
			return
		}
		finished = true
		watchdog.Stop()
		dur := hp.Now() - ctx.started
		pl.meter.LambdaGBSeconds += float64(fn.cfg.MemoryMB) / 1024 * dur.Seconds()
		pl.live--
		fn.warm = append(fn.warm, hp.Now())
		fut.finish(res, err)
	}

	// Hard runtime-limit watchdog, cancelled on normal completion.
	watchdog = pl.k.After(fn.cfg.Timeout, func() {
		if finished {
			return
		}
		finish(nil, fmt.Errorf("faas: function %q timed out after %v", fn.cfg.Name, fn.cfg.Timeout))
		pl.k.Kill(hp)
	})

	defer func() {
		if hp.Killed() {
			// Watchdog already billed and failed the future.
			return
		}
		if r := recover(); r != nil {
			if oe, ok := r.(oomError); ok {
				finish(nil, fmt.Errorf("faas: function %q: %w", fn.cfg.Name, oe.err))
				return
			}
			finish(nil, fmt.Errorf("faas: function %q crashed: %v", fn.cfg.Name, r))
			return
		}
	}()

	res, err := fn.cfg.Handler(ctx, payload)
	if err == nil && len(res) > pl.cfg.MaxResponseBytes {
		err = fmt.Errorf("faas: response %d bytes exceeds limit %d", len(res), pl.cfg.MaxResponseBytes)
		res = nil
	}
	finish(res, err)
}

// oomError wraps an out-of-memory failure for panic-based unwinding.
type oomError struct{ err error }

// Ctx is the execution context handed to a Handler. Its helpers charge
// virtual time for computation scaled by the instance's vCPU allocation and
// track memory against the instance's hard limit.
type Ctx struct {
	P  *sim.Proc
	pl *Platform
	fn *function

	memLimit int64
	memUsed  int64
	peakMem  int64
	vcpus    float64
	started  time.Duration
	deadline time.Duration
	// Warm reports whether this instance was a warm start.
	Warm bool

	// MACs, ElemOps and IOBytes accumulate the work charged via the
	// helpers, for per-worker metrics.
	MACs    float64
	ElemOps float64
	IOBytes int64
}

// FunctionName returns the executing function's name.
func (c *Ctx) FunctionName() string { return c.fn.cfg.Name }

// MemoryMB returns the instance's configured memory.
func (c *Ctx) MemoryMB() int { return c.fn.cfg.MemoryMB }

// VCPUs returns the instance's fractional vCPU allocation.
func (c *Ctx) VCPUs() float64 { return c.vcpus }

// Deadline returns the virtual time at which the platform will kill this
// instance.
func (c *Ctx) Deadline() time.Duration { return c.deadline }

// Remaining returns the runtime budget left before the hard timeout.
func (c *Ctx) Remaining() time.Duration { return c.deadline - c.P.Now() }

// Elapsed returns the handler's virtual runtime so far.
func (c *Ctx) Elapsed() time.Duration { return c.P.Now() - c.started }

// Alloc records bytes of instance memory. It panics with an OOM failure
// (captured by the platform and surfaced as an invocation error) if the
// instance memory limit is exceeded, mirroring a Lambda OOM kill.
func (c *Ctx) Alloc(bytes int64) {
	c.memUsed += bytes
	if c.memUsed > c.peakMem {
		c.peakMem = c.memUsed
	}
	if c.memUsed > c.memLimit {
		panic(oomError{fmt.Errorf("out of memory: %d bytes used, limit %d (%d MB)",
			c.memUsed, c.memLimit, c.fn.cfg.MemoryMB)})
	}
}

// Free releases previously Alloc'd bytes.
func (c *Ctx) Free(bytes int64) {
	c.memUsed -= bytes
	if c.memUsed < 0 {
		c.memUsed = 0
	}
}

// MemUsed returns current tracked memory use in bytes.
func (c *Ctx) MemUsed() int64 { return c.memUsed }

// PeakMem returns the peak tracked memory use in bytes.
func (c *Ctx) PeakMem() int64 { return c.peakMem }

// Compute charges virtual time for macs sparse multiply-add operations.
func (c *Ctx) Compute(macs float64) {
	c.MACs += macs
	c.P.Sleep(c.scale(macs, c.pl.cfg.Perf.MACRatePerVCPU))
}

// ComputeElem charges virtual time for ops element-wise operations
// (bias add, activation, threshold).
func (c *Ctx) ComputeElem(ops float64) {
	c.ElemOps += ops
	c.P.Sleep(c.scale(ops, c.pl.cfg.Perf.ElemRatePerVCPU))
}

// Serialize charges virtual time for packing/unpacking n payload bytes.
func (c *Ctx) Serialize(n int64) {
	c.IOBytes += n
	c.P.Sleep(c.scale(float64(n), c.pl.cfg.Perf.SerializeBytesPerSec))
}

// Compress charges virtual time for zlib-compressing n input bytes.
func (c *Ctx) Compress(n int64) {
	c.P.Sleep(c.scale(float64(n), c.pl.cfg.Perf.CompressBytesPerSec))
}

// Decompress charges virtual time for zlib-decompressing to n output bytes.
func (c *Ctx) Decompress(n int64) {
	c.P.Sleep(c.scale(float64(n), c.pl.cfg.Perf.DecompressBytesPerSec))
}

func (c *Ctx) scale(work, ratePerVCPU float64) time.Duration {
	if work <= 0 {
		return 0
	}
	sec := work / (ratePerVCPU * c.vcpus)
	return time.Duration(sec * float64(time.Second))
}

// Perf returns the platform's calibrated performance model.
func (c *Ctx) Perf() perf.Model { return c.pl.cfg.Perf }

// chargeInvokeCPU charges the caller-side CPU cost of one Invoke API call,
// scaled by this instance's vCPU share.
func (c *Ctx) chargeInvokeCPU() {
	sec := c.pl.cfg.InvokeCPUSeconds / c.vcpus
	c.P.Sleep(time.Duration(sec * float64(time.Second)))
}

// Invoke performs a synchronous invocation from inside a function instance,
// charging the instance the CPU cost of issuing the API call.
func (c *Ctx) Invoke(name string, payload []byte) (*Future, error) {
	c.chargeInvokeCPU()
	return c.pl.Invoke(c.P, name, payload)
}

// InvokeAsync performs an event invocation from inside a function instance,
// charging the instance the CPU cost of issuing the API call.
func (c *Ctx) InvokeAsync(name string, payload []byte) (*Future, error) {
	c.chargeInvokeCPU()
	return c.pl.InvokeAsync(c.P, name, payload)
}
