package balancer

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"time"
)

// dialer opens a backend connection; a context can cut the dial short.
var dialer = net.Dialer{Timeout: 30 * time.Second}

// conn is one connection to a backend and the reader of its answers.
type conn struct {
	net.Conn
	br *bufio.Reader
}

// exchange is one plain HTTP/1.1 GET to a backend, on a connection the
// balancer keeps itself: send writes it, response reads the answer's
// head (http.ReadResponse), done keeps the connection or closes it. The
// context firing puts the connection's deadline in the past, which fails
// whatever read or write waits on it. A fan-out sends every node's GET
// before it reads any answer: the nodes then work at once, and no
// goroutine per node is needed to wait on them.
type exchange struct {
	b      *Balancer
	be     *backend
	ctx    context.Context
	req    []byte
	c      *conn
	reused bool        // c was idle
	stop   func() bool // unhooks c from ctx; false once the hook ran
	resp   *http.Response
	body   eofBody
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

// start writes x's request on an idle connection, or on a new one when
// fresh is set or none is idle.
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
	x.stop = context.AfterFunc(x.ctx, func() { c.SetDeadline(time.Unix(1, 0)) })
	_, err := c.Write(x.req)
	return err
}

// response reads the head of x's answer; its body is resp.Body, which
// needs no Close. A kept connection that fails before the answer's first
// byte — the node closed it while it was idle, or restarted — is dropped
// and the request written once more on a new one, which counts against
// nothing.
func (x *exchange) response() (*http.Response, error) {
	if x.err == nil {
		_, x.err = x.c.br.Peek(1)
	}
	if x.err != nil && x.reused && x.ctx.Err() == nil {
		x.drop()
		if x.err = x.start(true); x.err == nil {
			_, x.err = x.c.br.Peek(1)
		}
	}
	if x.err == nil {
		x.resp, x.err = http.ReadResponse(x.c.br, nil)
	}
	if x.err != nil {
		return nil, x.err
	}
	x.body.r = x.resp.Body
	x.resp.Body = &x.body
	return x.resp, nil
}

// done puts x's connection on its backend's idle list, if that holds
// fewer than idleConnsPerBackend, when the answer was read to its end,
// neither side asked to close and the context did not fire; otherwise it
// closes it.
func (x *exchange) done() {
	if x.c != nil && x.stop() && x.resp != nil && !x.resp.Close && (x.body.eof || x.resp.ContentLength == 0) {
		select {
		case x.be.idle <- x.c:
			x.c = nil
		default:
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

// eofBody notes whether an answer's body was read to its end. Its Close
// does nothing: the connection is done's to keep or close, and the
// body's own Close would read the rest first.
type eofBody struct {
	r   io.Reader
	eof bool
}

func (e *eofBody) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	e.eof = e.eof || err == io.EOF
	return n, err
}

func (e *eofBody) Close() error { return nil }

// takeIdle returns an idle connection to be, or nil.
func (be *backend) takeIdle() *conn {
	select {
	case c := <-be.idle:
		return c
	default:
		return nil
	}
}
