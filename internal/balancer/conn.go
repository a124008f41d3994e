package balancer

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"
)

// dialer opens a backend connection; a context can cut the dial short.
var dialer = net.Dialer{Timeout: 30 * time.Second}

// An exchange is waiting for its read, reading, or cut by its context. A
// read cut before it began gets cutGrace to take an answer already sent:
// a fan-out that waited out a hung node keeps the answers behind it.
const (
	waiting int32 = iota
	reading
	cut

	cutGrace = 10 * time.Millisecond
)

// conn is one connection to a backend, the reader of its answers and the
// phase of the exchange on it.
type conn struct {
	net.Conn
	br    *bufio.Reader
	phase atomic.Int32
}

// exchange is one plain HTTP/1.1 GET to a backend, on a connection the
// balancer keeps itself: send writes it, response reads the answer's
// head (http.ReadResponse), done keeps the connection or closes it. The
// context firing fails a read in progress at once and gives one not yet
// begun cutGrace. A fan-out sends every node's GET before it reads any
// answer: the nodes then work at once, no goroutine waits on them, and k
// hung nodes cost a timed read its timeout plus at most k × cutGrace.
type exchange struct {
	b      *Balancer
	be     *backend
	ctx    context.Context
	req    []byte
	c      *conn
	reused bool        // c was idle
	stop   func() bool // unhooks c from ctx; false once the hook ran
	resp   *http.Response
	err    error // of the dial or the write
}

// send writes a GET of pathAndQuery to be, conditional on etag when it is
// set, on the connection to be that was idle last, or on a new one. A
// failure is response's to report.
func (b *Balancer) send(ctx context.Context, be *backend, pathAndQuery, etag string) *exchange {
	req := make([]byte, 0, 64+len(be.path)+len(pathAndQuery)+len(be.host)+len(etag))
	req = append(append(append(append(req, "GET "...), be.path...), pathAndQuery...), " HTTP/1.1\r\nHost: "...)
	req = append(append(req, be.host...), "\r\n"...)
	if etag != "" {
		req = append(append(append(req, "If-None-Match: "...), etag...), "\r\n"...)
	}
	x := &exchange{b: b, be: be, ctx: ctx, req: append(req, "\r\n"...)}
	x.err = x.start(false)
	return x
}

// start writes x's request on an idle connection (which has no hook
// left), or on a new one when fresh is set or none is idle. The context's
// hook swaps in cut, and fails a read it cut at once.
func (x *exchange) start(fresh bool) error {
	if x.c = nil; !fresh {
		x.c = x.be.takeIdle()
	}
	if x.reused = x.c != nil; !x.reused {
		nc, err := dialer.DialContext(x.ctx, "tcp", x.be.addr)
		if err != nil {
			return err
		}
		x.b.dials.Add(1)
		x.c = &conn{Conn: nc, br: bufio.NewReader(nc)}
	}
	c := x.c
	c.phase.Store(waiting)
	x.stop = context.AfterFunc(x.ctx, func() {
		if c.phase.Swap(cut) == reading {
			c.SetDeadline(time.Unix(1, 0))
		}
	})
	_, err := c.Write(x.req)
	return err
}

// response reads the head of x's answer; its body is resp.Body, which
// needs no Close: done keeps or closes the connection. A kept connection
// that fails before the answer's first byte — the node closed it while it
// was idle, or restarted — is dropped and the request written once more
// on a new one, which counts against nothing.
func (x *exchange) response() (*http.Response, error) {
	x.peek()
	if x.err != nil && x.reused && x.ctx.Err() == nil {
		x.drop()
		x.err = x.start(true)
		x.peek()
	}
	if x.err == nil {
		x.resp, x.err = http.ReadResponse(x.c.br, nil)
	}
	return x.resp, x.err
}

// peek begins x's read, unless its dial or write failed, and waits for
// the answer's first byte. If the context's hook has already taken the
// exchange to cut, the read gets cutGrace instead of failing at once.
func (x *exchange) peek() {
	if x.err != nil {
		return
	}
	if !x.c.phase.CompareAndSwap(waiting, reading) {
		x.c.SetReadDeadline(time.Now().Add(cutGrace))
	}
	_, x.err = x.c.br.Peek(1)
}

// done puts x's connection on its backend's idle list, if that holds
// fewer than idleConnsPerBackend, when the answer's body is at its end
// (the stdlib body answers a zero-length Read with io.EOF there), neither
// side asked to close and the context's hook has not run; otherwise it
// closes it.
func (x *exchange) done() {
	if x.c != nil && x.resp != nil && !x.resp.Close {
		if _, err := x.resp.Body.Read(nil); err == io.EOF && x.stop() {
			select {
			case x.be.idle <- x.c:
				x.c = nil
			default:
			}
		}
	}
	x.drop()
}

// drop closes x's connection, if it still has one.
func (x *exchange) drop() {
	if x.c != nil {
		x.stop()
		x.c.Close()
		x.c = nil
	}
}

// takeIdle returns an idle connection to be, or nil.
func (be *backend) takeIdle() *conn {
	select {
	case c := <-be.idle:
		return c
	default:
		return nil
	}
}
