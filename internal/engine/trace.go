package engine

import (
	"fmt"
	"time"

	"transpimlib/internal/telemetry"
)

// batchTrace carries the wall-clock stage stamps of one batch while
// its shard runs it. It is allocated only when tracing is enabled
// (batch.tr stays nil otherwise, so the disabled path never calls
// time.Now on the shard goroutines). Every field is written by the
// serving shard's goroutine before it sends on the done channel of a
// request the batch completes — the send is the happens-before edge,
// so finishRequest reads a fully stamped struct.
type batchTrace struct {
	shard int

	inStart, inEnd       time.Time // host staging + transfer-in charge
	setupStart, setupEnd time.Time // plan and cache resolve (≈0 on a hit)
	kernStart, kernEnd   time.Time // the executor's launches
	outStart, outEnd     time.Time // transfer-out charge + copy-back
}

// buildTrace assembles a completed request's span tree:
//
//	request
//	├─ queue              (enqueue → first batch picked up)
//	├─ batch[k]           (one per batch the request rode in)
//	│  ├─ transfer_in     wall + modeled host→PIM seconds
//	│  ├─ setup           cache ensure; modeled generation+broadcast
//	│  ├─ kernel          wall + modeled cycles/seconds
//	│  └─ transfer_out    gather + modeled PIM→host seconds
//	└─ error              terminal span, present only on failure
//
// It runs on the caller's goroutine after the request's last segment
// completed, so every field it reads is quiescent.
func buildTrace(r *request, id uint64, end time.Time, proc string) *telemetry.Trace {
	root := &telemetry.Span{
		Name:  "request",
		Start: r.enqueued,
		End:   end,
		Shard: r.stats.ShardID,
		Proc:  proc,
	}
	if r.prog != nil {
		root.SetAttr("program", r.prog.Name())
		root.SetAttr("method", r.prog.MethodLabel())
		root.SetAttr("phases", fmt.Sprint(r.prog.NumPhases()))
		root.SetAttr("elements", fmt.Sprint(len(r.pinputs[0])))
	} else {
		root.SetAttr("fn", r.spec.Fn.String())
		root.SetAttr("method", r.spec.Par.Method.String())
		root.SetAttr("elements", fmt.Sprint(len(r.inputs)))
	}
	root.SetAttr("batches", fmt.Sprint(r.stats.Batches))
	root.SetAttr("cache_hit", fmt.Sprint(r.stats.CacheHit))
	if r.tenant != "" {
		root.SetAttr("tenant", r.tenant)
	}
	if r.sloBreached {
		// The accuracy watcher tripped an SLO window on this request's
		// shadow samples; fault-free, SLO-clean traces stay unchanged.
		root.SetAttr("accuracy_slo_breached", "true")
	}

	if len(r.batchTraces) > 0 {
		q := &telemetry.Span{
			Name:  "queue",
			Start: r.enqueued,
			End:   r.batchTraces[0].tr.inStart,
			Shard: r.batchTraces[0].tr.shard,
		}
		root.AddChild(q)
	}
	for k, bt := range r.batchTraces {
		b, tr := bt.b, bt.tr
		bs := &telemetry.Span{
			Name:    fmt.Sprintf("batch[%d]", k),
			Start:   tr.inStart,
			End:     tr.outEnd,
			Shard:   tr.shard,
			Modeled: b.setup + b.tin + b.tcomp + b.tout,
		}
		bs.SetAttr("elements", fmt.Sprint(b.n))
		bs.SetAttr("requests", fmt.Sprint(len(b.segs)))
		// Recovery outcomes, attached only when something happened so
		// fault-free traces stay unchanged.
		if b.retries > 0 {
			bs.SetAttr("retries", fmt.Sprint(b.retries))
		}
		if b.remapped {
			bs.SetAttr("remapped", "true")
		}
		if b.hedged {
			bs.SetAttr("hedged", "true")
		}
		if b.degraded {
			bs.SetAttr("degraded", "true")
		}
		if b.err != nil {
			bs.Err = b.err.Error()
		}
		bs.AddChild(&telemetry.Span{
			Name: "transfer_in", Start: tr.inStart, End: tr.inEnd,
			Shard: tr.shard, Modeled: b.tin,
		})
		setup := &telemetry.Span{
			Name: "setup", Start: tr.setupStart, End: tr.setupEnd,
			Shard: tr.shard, Modeled: b.setup,
		}
		setup.SetAttr("cache_hit", fmt.Sprint(b.hit))
		bs.AddChild(setup)
		if b.err == nil {
			kern := &telemetry.Span{
				Name: "kernel", Start: tr.kernStart, End: tr.kernEnd,
				Shard: tr.shard, Modeled: b.tcomp,
			}
			kern.SetAttr("cycles", fmt.Sprint(b.cycles))
			bs.AddChild(kern)
			bs.AddChild(&telemetry.Span{
				Name: "transfer_out", Start: tr.outStart, End: tr.outEnd,
				Shard: tr.shard, Modeled: b.tout,
			})
		}
		root.AddChild(bs)
	}
	if r.err != nil {
		// The Err-carrying terminal span: failed requests stay visible
		// in the trace tree, not just in the error return.
		root.Err = r.err.Error()
		root.AddChild(&telemetry.Span{
			Name: "error", Start: end, End: end,
			Shard: r.stats.ShardID, Err: r.err.Error(),
		})
	}
	return &telemetry.Trace{ID: id, Root: root}
}
