package shadowfax

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Future is the completion handle of an asynchronous operation. Futures are
// pooled per client: the underlying completion rides the client library's
// zero-allocation callback path, and Release recycles the handle (and its
// value buffer) so steady-state async traffic creates no per-operation
// garbage beyond the pool's amortized growth. A Future holds nothing of the
// client thread's: one that is never Released is simply garbage-collected.
//
// A Future is completed exactly once — by a server response, by session
// recovery, or by Close (with ErrClosed). Wait may be called from any
// goroutine, but by one goroutine at a time.
type Future struct {
	c  *Client
	sh *shard

	// ch (capacity 1) carries the one completion signal: status and val are
	// written before the token is sent and read only after it is received.
	ch     chan struct{}
	status wire.ResultStatus
	val    []byte // reused buffer; the result value is copied into it

	// state is futArmed from newFuture until complete or Release moves it;
	// whichever of the two finds the other's mark recycles the handle, so it
	// is pooled exactly once and only when both are done with it.
	state atomic.Uint32

	cb func(st wire.ResultStatus, v []byte) // bound once; handed to the thread
}

const (
	futArmed    uint32 = iota // in flight, not released
	futDone                   // completed, not released
	futReleased               // released: recycled, or will be at completion
)

// complete is the thread callback: it runs while the issuing shard's lock is
// held (inside Poll/Flush/Close), copies the value out of the batch frame,
// and wakes the waiter.
func (f *Future) complete(st wire.ResultStatus, v []byte) {
	f.status = st
	f.val = append(f.val[:0], v...)
	f.ch <- struct{}{} // never blocks: one token per armed lifetime
	if !f.state.CompareAndSwap(futArmed, futDone) {
		f.recycle() // released while in flight: nobody else holds the handle
	}
}

// Wait blocks until the operation completes or ctx is done.
//
// On completion it returns the operation's value (reads only; nil
// otherwise) and the operation's error from the package taxonomy. The value
// aliases the Future's internal buffer: it is valid until Release (or until
// the caller copies it).
//
// On ctx expiry/cancellation the operation is still in flight — its
// completion will arrive later (or at Close) — and Wait returns the context
// error, wrapped with ErrSessionBroken when the delay is explained by a dead
// server connection.
func (f *Future) Wait(ctx context.Context) ([]byte, error) {
	if f.c.pumpStop != nil {
		// A background pump goroutine drives the shards; just block.
		select {
		case <-f.ch:
			return f.result()
		case <-ctx.Done():
			return nil, f.c.ctxError(ctx.Err())
		}
	}
	for {
		select {
		case <-f.ch:
			return f.result()
		default:
		}
		if err := ctx.Err(); err != nil {
			return nil, f.c.ctxError(err)
		}
		f.sh.drive(20 * time.Microsecond)
	}
}

func (f *Future) result() ([]byte, error) {
	if err := errorFromStatus(f.status); err != nil {
		return nil, err
	}
	return f.val, nil
}

// Release returns the Future to its client's pool for reuse. After Wait
// observed the completion it recycles at once; before completion (Wait
// returned a context error, or fire-and-forget) it lets go of the handle and
// the completion recycles it. Either way the caller must not touch the Future
// or the value Wait returned again. A second Release is a no-op (it must not
// double-pool the handle).
func (f *Future) Release() {
	if f == nil || f.state.CompareAndSwap(futArmed, futReleased) {
		return // nil, or in flight: complete recycles
	}
	if f.state.CompareAndSwap(futDone, futReleased) {
		f.recycle()
	}
}

// recycle pools the handle; its caller won the state word, so it runs once.
func (f *Future) recycle() {
	select {
	case <-f.ch: // drop a completion token nobody waited for
	default:
	}
	f.c.futures.Put(f)
}
