package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// DefaultDialTimeout bounds the TCP connect when DialOptions.DialTimeout
// is zero.
const DefaultDialTimeout = 5 * time.Second

// DialOptions configures a Client. The zero value dials with
// DefaultDialTimeout, waits on responses without bound and accepts
// frames up to DefaultMaxFrame. Every non-OK status, a redirect
// included, comes back to the caller as an *Error.
type DialOptions struct {
	// DialTimeout bounds the TCP connect (0 means DefaultDialTimeout).
	DialTimeout time.Duration
	// ReadTimeout bounds each call's wait for its response; on expiry
	// the connection is failed (responses are pipelined, so a lost
	// response means every later one is late too). 0 waits forever.
	ReadTimeout time.Duration
	// WriteTimeout bounds each request frame write (0 means none).
	WriteTimeout time.Duration
}

// Client speaks the binary protocol to one server connection. It is
// safe for concurrent use: calls are pipelined over the single
// connection (each request carries an ID; a reader goroutine routes
// each response to its waiter), which is how one client keeps a
// server's batch scheduler fed without one connection per in-flight
// request.
type Client struct {
	opts DialOptions
	conn net.Conn
	br   *bufio.Reader

	wmu  sync.Mutex // serializes writes and the write buffer
	wbuf []byte

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan response
	err     error // terminal connection error, set once
}

type response struct {
	msg any // *Result, *DynCreated, *Mutated, *RepAck, *HandbackGrant; nil for pong
	err error
}

// errClosed is the terminal error of a deliberately closed client.
var errClosed = errors.New("wire: client closed")

// Dial connects to a binary-protocol server at addr.
func Dial(addr string, opts DialOptions) (*Client, error) {
	dt := opts.DialTimeout
	if dt <= 0 {
		dt = DefaultDialTimeout
	}
	conn, err := net.DialTimeout("tcp", addr, dt)
	if err != nil {
		return nil, err
	}
	return NewClientOptions(conn, opts), nil
}

// NewClientOptions wraps an established connection. The client owns
// conn and closes it on Close or on any protocol error.
func NewClientOptions(conn net.Conn, opts DialOptions) *Client {
	c := &Client{
		opts:    opts,
		conn:    conn,
		br:      bufio.NewReader(conn),
		nextID:  1,
		pending: make(map[uint64]chan response),
	}
	go c.readLoop()
	return c
}

// call registers a waiter, writes the frame enc produces for it, and
// waits for the correlated response. A request waits under a fresh ID;
// a ping, which carries no ID on the wire, waits under a descending
// pseudo-ID (pongs arrive in order relative to other pings).
func (c *Client) call(ping bool, enc func(dst []byte, id uint64) []byte) (any, error) {
	ch := make(chan response, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	id := c.nextID
	c.nextID++
	if ping {
		id = ^id
	}
	c.pending[id] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	c.wbuf = enc(c.wbuf[:0], id)
	if c.opts.WriteTimeout > 0 {
		_ = c.conn.SetWriteDeadline(time.Now().Add(c.opts.WriteTimeout))
	}
	//spatialvet:ignore waitunderlock -- wmu exists to serialize whole-frame writes on the shared conn; readLoop never takes it, so writers only wait on writers
	_, werr := c.conn.Write(c.wbuf)
	c.wmu.Unlock()
	if werr != nil {
		c.fail(fmt.Errorf("wire: write: %w", werr))
	}
	r := c.wait(ch)
	return r.msg, r.err
}

// roundTrip is the one round trip behind every request method: it
// sends the frame enc writes under a fresh request ID and returns the
// reply, which must be an *R.
// A reply of another kind is the server answering out of turn, so it
// fails the connection (ErrCorrupt) like any other malformed frame.
func roundTrip[R any](c *Client, enc func(dst []byte, id uint64) []byte) (*R, error) {
	msg, err := c.call(false, enc)
	if err != nil {
		return nil, err
	}
	r, ok := msg.(*R)
	if !ok {
		err := format.Corruptf("%T reply to a request expecting %T", msg, r)
		c.fail(err)
		return nil, err
	}
	return r, nil
}

// wait blocks for the response, bounded by ReadTimeout. Expiry fails
// the whole connection: responses arrive in request order, so a
// response that has not arrived in time holds every later one behind
// it.
func (c *Client) wait(ch chan response) response {
	if c.opts.ReadTimeout <= 0 {
		return <-ch
	}
	t := time.NewTimer(c.opts.ReadTimeout)
	defer t.Stop()
	select {
	case r := <-ch:
		return r
	case <-t.C:
		c.fail(fmt.Errorf("wire: no response within %v", c.opts.ReadTimeout))
		return <-ch // fail delivered to every pending waiter
	}
}

// Do sends q and waits for its response. The query's ID field is
// assigned by the client; concurrent Do calls are pipelined. A non-OK
// server response comes back as an *Error (inspect its Status); a
// transport failure fails every in-flight call with the same error.
func (c *Client) Do(q *Query) (*Result, error) {
	return roundTrip[Result](c, func(dst []byte, id uint64) []byte {
		q.ID = id
		return AppendQuery(dst, q)
	})
}

// DynCreate creates a mutable shard and returns its identity.
func (c *Client) DynCreate(dc *DynCreate) (*DynCreated, error) {
	return roundTrip[DynCreated](c, func(dst []byte, id uint64) []byte {
		dc.ID = id
		return AppendDynCreate(dst, dc)
	})
}

// Mutate inserts or deletes a leaf of a mutable shard.
func (c *Client) Mutate(m *Mutate) (*Mutated, error) {
	return roundTrip[Mutated](c, func(dst []byte, id uint64) []byte {
		m.ID = id
		return AppendMutate(dst, m)
	})
}

// ShipSnapshot ships a replica snapshot (cluster replication).
func (c *Client) ShipSnapshot(s *RepSnapshot) (*RepAck, error) {
	return roundTrip[RepAck](c, func(dst []byte, id uint64) []byte {
		s.ID = id
		return AppendRepSnapshot(dst, s)
	})
}

// ShipRecords ships replica WAL records (cluster replication).
func (c *Client) ShipRecords(r *RepRecords) (*RepAck, error) {
	return roundTrip[RepAck](c, func(dst []byte, id uint64) []byte {
		r.ID = id
		return AppendRepRecords(dst, r)
	})
}

// Handback offers a shard back to the peer currently covering it — the
// rejoin reconciliation conversation (cluster tier).
func (c *Client) Handback(o *HandbackOffer) (*HandbackGrant, error) {
	return roundTrip[HandbackGrant](c, func(dst []byte, id uint64) []byte {
		o.ID = id
		return AppendHandbackOffer(dst, o)
	})
}

// Ping round-trips a liveness probe.
func (c *Client) Ping() error {
	_, err := c.call(true, func(dst []byte, _ uint64) []byte { return AppendPing(dst) })
	return err
}

// Err returns the error that ended the connection, or nil while it is
// open. The reader records a close by the server (an idle timeout, say)
// as soon as it reads it, so Err reports it before any call is tried.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close tears down the connection; in-flight calls fail. Close is
// idempotent: repeated calls are no-ops returning nil.
func (c *Client) Close() error {
	c.fail(errClosed)
	return nil
}

func (c *Client) readLoop() {
	rd := NewReader(c.br, DefaultMaxFrame)
	for {
		kind, payload, err := rd.Next()
		if err != nil {
			c.fail(fmt.Errorf("wire: read: %w", err))
			return
		}
		var r reply
		switch kind {
		case FrameResult:
			r = new(Result)
		case FrameDynCreated:
			r = new(DynCreated)
		case FrameMutated:
			r = new(Mutated)
		case FrameRepAck:
			r = new(RepAck)
		case FrameHandbackGrant:
			r = new(HandbackGrant)
		case FrameError:
			e := new(Error)
			if err := e.Decode(payload); err != nil {
				c.fail(err)
				return
			}
			if e.ID == 0 {
				// Connection-level error: no request to attribute it to,
				// so every in-flight call fails with it.
				c.fail(e)
				return
			}
			c.deliver(e.ID, response{err: e})
			continue
		case FramePong:
			c.deliverPong()
			continue
		default:
			c.fail(format.Corruptf("unexpected frame kind %d from server", kind))
			return
		}
		if err := r.Decode(payload); err != nil {
			c.fail(err)
			return
		}
		c.deliver(r.requestID(), response{msg: r})
	}
}

// reply is a decodable reply frame that names the request it answers.
type reply interface {
	Decode(payload []byte) error
	requestID() uint64
}

func (r *Result) requestID() uint64        { return r.ID }
func (c *DynCreated) requestID() uint64    { return c.ID }
func (m *Mutated) requestID() uint64       { return m.ID }
func (a *RepAck) requestID() uint64        { return a.ID }
func (g *HandbackGrant) requestID() uint64 { return g.ID }

func (c *Client) deliver(id uint64, r response) {
	c.mu.Lock()
	ch, ok := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	if ok {
		ch <- r
	}
}

func (c *Client) deliverPong() {
	c.mu.Lock()
	var best uint64
	found := false
	// Oldest ping waiter = largest pseudo-ID (IDs descend from ^1).
	for id := range c.pending {
		if id > 1<<63 && (!found || id > best) {
			best, found = id, true
		}
	}
	var ch chan response
	if found {
		ch = c.pending[best]
		delete(c.pending, best)
	}
	c.mu.Unlock()
	if ch != nil {
		ch <- response{}
	}
}

// fail records the terminal error, closes the connection, and fails
// every pending call. Only the first error sticks.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = err
	pending := c.pending
	c.pending = make(map[uint64]chan response)
	c.mu.Unlock()
	c.conn.Close()
	for _, ch := range pending {
		ch <- response{err: err}
	}
}
