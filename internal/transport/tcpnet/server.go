package tcpnet

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"coterie/internal/deadline"
	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/transport"
	"coterie/internal/wire"
)

// maxServeWorkers bounds the persistent worker pool per accepted
// connection. Requests beyond this many concurrently blocked handlers
// fall back to one-shot goroutines, so concurrency is never capped — the
// pool only decides which requests get a warm, already-grown stack.
const maxServeWorkers = 32

// Start opens a listener for every locally registered node that has an
// address-book entry and begins serving. Register before Start; handler
// swaps after Start take effect immediately (the table is read per
// request).
func (n *Network) Start() error {
	t := n.local.Load()
	if t == nil {
		return fmt.Errorf("tcpnet: Start with no registered nodes")
	}
	for _, ep := range t.eps {
		if ep == nil {
			continue
		}
		p := n.peerOf(ep.id)
		if p == nil {
			continue // local-only endpoint (e.g. a client identity)
		}
		ln, err := net.Listen("tcp", p.addr)
		if err != nil {
			return fmt.Errorf("tcpnet: listen %s for node %d: %w", p.addr, ep.id, err)
		}
		n.lnMu.Lock()
		n.listeners = append(n.listeners, ln)
		n.lnMu.Unlock()
		n.serveWG.Add(1)
		go n.acceptLoop(ln, ep)
	}
	return nil
}

func (n *Network) acceptLoop(ln net.Listener, ep *localEndpoint) {
	defer n.serveWG.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		sc := &serverConn{
			n:      n,
			ep:     ep,
			nc:     nc,
			out:    newOutRing(n.outQueue, n.flushStalls, n.outDepth),
			closed: make(chan struct{}),
			work:   make(chan srvReq),
		}
		if !n.track(sc) {
			nc.Close()
			return
		}
		n.serveWG.Add(1)
		go sc.readLoop()
		go n.writeRing(sc.nc, sc.out, sc.close)
	}
}

func (n *Network) track(sc *serverConn) bool {
	n.lnMu.Lock()
	defer n.lnMu.Unlock()
	select {
	case <-n.closed:
		return false
	default:
	}
	n.conns[sc] = struct{}{}
	return true
}

func (n *Network) untrack(sc *serverConn) {
	n.lnMu.Lock()
	delete(n.conns, sc)
	n.lnMu.Unlock()
}

// serverConn is the serving side of one accepted connection. Requests
// dispatch to a per-connection pool of persistent worker goroutines — the
// pipelined mirror of the client side: a slow handler never blocks the
// requests queued behind it, and replies are written in completion order,
// matched back by correlation ID.
//
// The pool exists because goroutine-per-request was measurable: protocol
// handlers call deep into coordinator/replica code, and freshly spawned
// goroutines paid for stack growth (runtime.morestack/newstack ≈ 10% of
// daemon CPU) on every request. Persistent workers grow their stacks once
// and keep them. Dispatch never blocks the read loop: a request that
// finds no idle worker spawns one (persistent up to maxServeWorkers, else
// one-shot), so a handler parked on a contended lock queue cannot
// head-of-line-block the requests arriving behind it.
type serverConn struct {
	n      *Network
	ep     *localEndpoint
	nc     net.Conn
	out    *outRing
	closed chan struct{}
	once   sync.Once

	work    chan srvReq  // unbuffered; only sent to with an idle token claimed
	idle    atomic.Int32 // committed idle receivers on work
	workers atomic.Int32 // persistent workers spawned
}

// srvReq is one decoded request handed from the read loop to a worker.
type srvReq struct {
	corr    uint64
	from    nodeset.ID
	timeout time.Duration
	tc      obs.TraceContext
	msg     transport.Message
}

func (sc *serverConn) close() {
	sc.once.Do(func() {
		close(sc.closed)
		sc.nc.Close()
		sc.out.close()
		sc.n.untrack(sc)
	})
}

func (sc *serverConn) readLoop() {
	defer sc.n.serveWG.Done()
	defer sc.close()
	fr := newFrameReader(sc.nc)
	for {
		body, err := fr.next()
		if err != nil {
			return // EOF or broken peer; in-flight handlers finish and fail their writes
		}
		sc.n.framesRecv.Inc()
		sc.n.bytesRecv.Add(uint64(len(body)) + lenSize)
		corr, from, timeout, tc, payload, err := parseRequest(body)
		if err != nil {
			return // protocol violation: tear the connection down
		}
		// Decode in place, straight out of the read window: wire decoding
		// copies byte fields, so the message owns its data and the window
		// can be overwritten by the next frame.
		msg, err := wire.Unmarshal(payload)
		if err != nil {
			// An undecodable payload is an application-level problem for
			// exactly one call, not the connection: report it back (unless
			// the sender declared it isn't listening).
			if corr != oneWayCorr {
				sc.reply(corr, nil, fmt.Errorf("tcpnet: request codec: %v", err))
			}
			continue
		}
		sc.ep.served.Inc()
		sc.dispatch(srvReq{corr: corr, from: from, timeout: timeout, tc: tc, msg: msg})
	}
}

// dispatch hands one request to the worker pool. idle counts workers
// committed to receive on work: claiming a token (decrement stays ≥ 0)
// guarantees the send completes promptly, so the read loop never waits on
// a busy handler. With no token available, a new worker takes the request
// as its first job.
func (sc *serverConn) dispatch(rq srvReq) {
	if sc.idle.Add(-1) >= 0 {
		select {
		case sc.work <- rq:
		case <-sc.closed:
		}
		return
	}
	sc.idle.Add(1)
	sc.n.serveWG.Add(1)
	if sc.workers.Add(1) <= maxServeWorkers {
		go sc.worker(rq)
		return
	}
	sc.workers.Add(-1)
	go func() { // overflow: plain goroutine-per-request
		defer sc.n.serveWG.Done()
		sc.serveOne(rq)
	}()
}

// worker serves its first request, then parks for more until the
// connection closes.
func (sc *serverConn) worker(rq srvReq) {
	defer sc.n.serveWG.Done()
	sc.serveOne(rq)
	for {
		sc.idle.Add(1)
		select {
		case rq := <-sc.work:
			sc.serveOne(rq)
		case <-sc.closed:
			return
		}
	}
}

// serveOne runs one request through the endpoint's handler and queues the
// reply. The handler context carries the caller's propagated deadline —
// a lazily armed deadline.Ctx, so fast handlers that never park never
// touch the timer heap — and is canceled when the whole network closes.
func (sc *serverConn) serveOne(rq srvReq) {
	ctx := sc.n.baseCtx
	if rq.timeout > 0 {
		dctx, release := deadline.At(ctx, time.Now().Add(rq.timeout))
		defer release()
		ctx = dctx
	}
	if rq.tc.Valid() {
		// Re-attach the propagated trace identity. Only sampled operations
		// mint a context, so the untraced hot path never pays this
		// allocation.
		ctx = obs.WithTrace(ctx, rq.tc)
	}
	h := *sc.ep.handler.Load()
	reply, err := h(ctx, rq.from, rq.msg)
	if rq.corr == oneWayCorr {
		return // fire-and-forget request: the sender dropped the outcome
	}
	sc.reply(rq.corr, reply, err)
}

func (sc *serverConn) reply(corr uint64, reply transport.Message, herr error) {
	f := getBuf()
	appendReply(f, corr, reply, herr)
	if err := sc.out.enqueue(nil, f); err != nil {
		putBuf(f) // caller is gone; it will see ErrCallFailed from its side
	}
}
