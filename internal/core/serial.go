package core

import (
	"encoding/json"
	"fmt"

	"fsdinference/internal/cloud/faas"
	"fsdinference/internal/sparse"
	"fsdinference/internal/wire"
)

// serialHandler is FSD-Inf-Serial (§VI-A1): Algorithm 1 with all
// communication removed, running on a single maximum-memory instance that
// loads the unpartitioned model and inference data, computes every layer
// locally and stores the result. Models too large for the instance fail
// with an out-of-memory error, exactly as the paper observes for N=65536.
func (d *Deployment) serialHandler(ctx *faas.Ctx, payload []byte) ([]byte, error) {
	var req workerPayload
	if err := json.Unmarshal(payload, &req); err != nil {
		return nil, fmt.Errorf("core: serial payload: %w", err)
	}
	run := d.runs[req.Run]
	if run == nil {
		return nil, fmt.Errorf("core: serial worker invoked for unknown run %q", req.Run)
	}
	p := ctx.P
	wm := &WorkerMetrics{ID: 0, StartedAt: p.Now(), Warm: ctx.Warm}
	run.metrics = append(run.metrics, wm)
	run.started = append(run.started, p.Now())
	run.lastStart = p.Now()

	spec := d.Cfg.Model.Spec
	perf := ctx.Perf()

	// Load the full model.
	t0 := p.Now()
	for k, w := range d.Cfg.Model.Layers {
		blob, err := d.store.Get(p, fmt.Sprintf("model/full/layer-%d.w", k))
		if err != nil {
			return nil, fmt.Errorf("core: serial loading layer %d: %w", k, err)
		}
		wm.StoreGets++
		ctx.Serialize(int64(len(blob)))
		ctx.Alloc(int64(float64(w.Bytes()) * perf.MemOverheadWeights))
	}
	blob, err := d.store.Get(p, fmt.Sprintf("input/%s/full.x", run.id))
	if err != nil {
		return nil, fmt.Errorf("core: serial loading input: %w", err)
	}
	wm.StoreGets++
	ctx.Serialize(int64(len(blob)))
	ctx.Decompress(int64(len(blob)))
	// The fetched blob is this process's own encoding of run.input (the
	// transfer and decompression above are still charged on its real
	// length), so the numeric layer loop works from the host-side original
	// instead of re-decoding the bytes.
	xBytes := int64(float64(int64(spec.Neurons*run.batch)*4) * perf.MemOverheadData)
	ctx.Alloc(xBytes)
	wm.LoadTime = p.Now() - t0

	// Layer loop: z = Wx, activation, repeat.
	x := run.input
	for _, w := range d.Cfg.Model.Layers {
		ctx.Alloc(xBytes)
		z, macs := sparse.Mul(w, x)
		ctx.Compute(float64(macs))
		wm.MACs += float64(macs)
		ctx.ComputeElem(float64(sparse.ReLUBiasClamp(z, spec.Bias, spec.Clamp)))
		ctx.Free(xBytes)
		x = z
	}

	// Store the result.
	enc, err := wire.Encode(denseToRowSet(x), d.Cfg.Compress)
	if err != nil {
		return nil, fmt.Errorf("core: serial encoding result: %w", err)
	}
	ctx.Serialize(int64(len(enc)))
	if err := d.store.Put(p, fmt.Sprintf("result/%s.out", run.id), enc); err != nil {
		return nil, fmt.Errorf("core: serial storing result: %w", err)
	}
	wm.StorePuts++
	run.output = x
	wm.FinishedAt = p.Now()
	wm.PeakMemBytes = ctx.PeakMem()
	return []byte(`{"ok":true}`), nil
}
