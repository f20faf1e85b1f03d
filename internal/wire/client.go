package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Client option defaults.
const (
	// DefaultDialTimeout bounds the TCP connect when
	// DialOptions.DialTimeout is zero.
	DefaultDialTimeout = 5 * time.Second
	// DefaultRetryBackoff is the first retry sleep when
	// DialOptions.RetryBackoff is zero.
	DefaultRetryBackoff = 10 * time.Millisecond
	// MaxRetryBackoff caps the doubling retry sleep.
	MaxRetryBackoff = time.Second
)

// DialOptions configures a Client. The zero value dials with
// DefaultDialTimeout, waits on responses without bound, accepts frames
// up to DefaultMaxFrame, surfaces redirects to the caller and never
// retries — the PR 5 client's behavior.
type DialOptions struct {
	// DialTimeout bounds the TCP connect (0 means DefaultDialTimeout).
	DialTimeout time.Duration
	// ReadTimeout bounds each call's wait for its response; on expiry
	// the connection is failed (responses are pipelined, so a lost
	// response means every later one is late too). 0 waits forever.
	ReadTimeout time.Duration
	// WriteTimeout bounds each request frame write (0 means none).
	WriteTimeout time.Duration
	// MaxFrame bounds accepted response payloads (<= 0 means
	// DefaultMaxFrame).
	MaxFrame int
	// FollowRedirects is the maximum number of StatusRedirect hops a
	// call chases before surfacing the redirect as its error. Redirect
	// targets are dialed lazily with these same options and cached on
	// the client, so a smart client converges on shard owners after one
	// hop per shard. 0 surfaces every redirect.
	FollowRedirects int
	// RetryUnavailable is the number of times a call rejected with
	// StatusUnavailable (server draining — the request was not admitted,
	// so re-sending cannot double-apply) is retried before the status is
	// surfaced. 0 never retries.
	RetryUnavailable int
	// RetryBackoff is the sleep before the first retry, doubled per
	// retry and capped at MaxRetryBackoff (0 means
	// DefaultRetryBackoff).
	RetryBackoff time.Duration
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

	// children caches lazily-dialed redirect targets, keyed by address;
	// they share opts (with redirect-chasing disabled — the hop loop
	// lives on this client) and close with it.
	cmu      sync.Mutex
	children map[string]*Client
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

// NewClient wraps an established connection with default options. The
// client owns conn and closes it on Close or on any protocol error.
func NewClient(conn net.Conn) *Client {
	return NewClientOptions(conn, DialOptions{})
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

// call registers a waiter under a fresh ID, writes the frame enc
// produces for it, and waits for the correlated response.
func (c *Client) call(enc func(dst []byte, id uint64) []byte) (any, error) {
	ch := make(chan response, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	id := c.nextID
	c.nextID++
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

// retried runs do with the retry-on-unavailable policy: a call the
// server refused at admission (StatusUnavailable) was never applied, so
// it is safe to re-send after a doubling, capped backoff.
func (c *Client) retried(on *Client, do func(*Client) (any, error)) (any, error) {
	backoff := c.opts.RetryBackoff
	if backoff <= 0 {
		backoff = DefaultRetryBackoff
	}
	for try := 0; ; try++ {
		msg, err := do(on)
		var we *Error
		if err != nil && errors.As(err, &we) && we.Status == StatusUnavailable &&
			try < c.opts.RetryUnavailable {
			time.Sleep(backoff)
			backoff *= 2
			if backoff > MaxRetryBackoff {
				backoff = MaxRetryBackoff
			}
			continue
		}
		return msg, err
	}
}

// routed runs do with both client policies: unavailable retries on each
// connection, and redirect-chasing across connections (each hop dialing
// the owner address the redirect named, bounded by FollowRedirects).
func (c *Client) routed(do func(*Client) (any, error)) (any, error) {
	cur := c
	for hops := 0; ; hops++ {
		msg, err := c.retried(cur, do)
		var we *Error
		if err == nil || !errors.As(err, &we) || we.Status != StatusRedirect ||
			we.Msg == "" || hops >= c.opts.FollowRedirects {
			return msg, err
		}
		next, derr := c.child(we.Msg)
		if derr != nil {
			return nil, fmt.Errorf("wire: following redirect to %s: %w", we.Msg, derr)
		}
		cur = next
	}
}

// child returns the cached client for a redirect target, dialing it if
// absent or dead. The dial happens outside cmu; a concurrent dial for
// the same address keeps the first registered client.
func (c *Client) child(addr string) (*Client, error) {
	c.cmu.Lock()
	if cc := c.children[addr]; cc != nil {
		cc.mu.Lock()
		dead := cc.err != nil
		cc.mu.Unlock()
		if !dead {
			c.cmu.Unlock()
			return cc, nil
		}
		delete(c.children, addr)
	}
	c.cmu.Unlock()

	opts := c.opts
	opts.FollowRedirects = 0 // hop chasing lives on the root client
	cc, err := Dial(addr, opts)
	if err != nil {
		return nil, err
	}
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if prior := c.children[addr]; prior != nil {
		prior.mu.Lock()
		dead := prior.err != nil
		prior.mu.Unlock()
		if !dead {
			go cc.Close()
			return prior, nil
		}
	}
	if c.children == nil {
		c.children = make(map[string]*Client)
	}
	c.children[addr] = cc
	return cc, nil
}

// Do sends q and waits for its response. The query's ID field is
// assigned by the client; concurrent Do calls are pipelined. A non-OK
// server response comes back as an *Error (inspect its Status); a
// transport failure fails every in-flight call with the same error.
// Redirects are chased and unavailable rejections retried per the
// client's DialOptions.
func (c *Client) Do(q *Query) (*Result, error) {
	msg, err := c.routed(func(cc *Client) (any, error) {
		return cc.call(func(dst []byte, id uint64) []byte {
			q.ID = id
			return AppendQuery(dst, q)
		})
	})
	if err != nil {
		return nil, err
	}
	return msg.(*Result), nil
}

// DynCreate creates a mutable shard and returns its identity.
func (c *Client) DynCreate(dc *DynCreate) (*DynCreated, error) {
	msg, err := c.routed(func(cc *Client) (any, error) {
		return cc.call(func(dst []byte, id uint64) []byte {
			dc.ID = id
			return AppendDynCreate(dst, dc)
		})
	})
	if err != nil {
		return nil, err
	}
	return msg.(*DynCreated), nil
}

// Mutate inserts or deletes a leaf of a mutable shard. A mutation
// rejected with StatusUnavailable was refused at admission — never
// applied — so the retry policy is as safe here as for queries.
func (c *Client) Mutate(m *Mutate) (*Mutated, error) {
	msg, err := c.routed(func(cc *Client) (any, error) {
		return cc.call(func(dst []byte, id uint64) []byte {
			m.ID = id
			return AppendMutate(dst, m)
		})
	})
	if err != nil {
		return nil, err
	}
	return msg.(*Mutated), nil
}

// ShipSnapshot ships a replica snapshot (cluster replication; not
// redirected — the shipper chose the follower deliberately).
func (c *Client) ShipSnapshot(s *RepSnapshot) (*RepAck, error) {
	msg, err := c.call(func(dst []byte, id uint64) []byte {
		s.ID = id
		return AppendRepSnapshot(dst, s)
	})
	if err != nil {
		return nil, err
	}
	return msg.(*RepAck), nil
}

// ShipRecords ships replica WAL records (cluster replication; not
// redirected, like ShipSnapshot).
func (c *Client) ShipRecords(r *RepRecords) (*RepAck, error) {
	msg, err := c.call(func(dst []byte, id uint64) []byte {
		r.ID = id
		return AppendRepRecords(dst, r)
	})
	if err != nil {
		return nil, err
	}
	return msg.(*RepAck), nil
}

// Handback offers a shard back to the peer currently covering it — the
// rejoin reconciliation conversation (cluster tier; not redirected, the
// rejoiner chose the successor deliberately, like ShipSnapshot).
func (c *Client) Handback(o *HandbackOffer) (*HandbackGrant, error) {
	msg, err := c.call(func(dst []byte, id uint64) []byte {
		o.ID = id
		return AppendHandbackOffer(dst, o)
	})
	if err != nil {
		return nil, err
	}
	return msg.(*HandbackGrant), nil
}

// Ping round-trips a liveness probe.
func (c *Client) Ping() error {
	ch := make(chan response, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	// Pings carry no ID on the wire; responses arrive in order relative
	// to other pings, so park waiters on descending pseudo-IDs.
	id := ^c.nextID
	c.nextID++
	c.pending[id] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	c.wbuf = AppendPing(c.wbuf[:0])
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
	return r.err
}

// Close tears down the connection and every cached redirect client;
// in-flight calls fail. Close is idempotent: repeated calls are no-ops
// returning nil.
func (c *Client) Close() error {
	c.fail(errClosed)
	c.cmu.Lock()
	kids := c.children
	c.children = nil
	c.cmu.Unlock()
	for _, cc := range kids {
		_ = cc.Close()
	}
	return nil
}

func (c *Client) readLoop() {
	rd := NewReader(c.br, c.opts.MaxFrame)
	for {
		kind, payload, err := rd.Next()
		if err != nil {
			c.fail(fmt.Errorf("wire: read: %w", err))
			return
		}
		var id uint64
		var msg any
		switch kind {
		case FrameResult:
			res := new(Result)
			if err := res.Decode(payload); err != nil {
				c.fail(err)
				return
			}
			id, msg = res.ID, res
		case FrameDynCreated:
			dc := new(DynCreated)
			if err := dc.Decode(payload); err != nil {
				c.fail(err)
				return
			}
			id, msg = dc.ID, dc
		case FrameMutated:
			m := new(Mutated)
			if err := m.Decode(payload); err != nil {
				c.fail(err)
				return
			}
			id, msg = m.ID, m
		case FrameRepAck:
			a := new(RepAck)
			if err := a.Decode(payload); err != nil {
				c.fail(err)
				return
			}
			id, msg = a.ID, a
		case FrameHandbackGrant:
			g := new(HandbackGrant)
			if err := g.Decode(payload); err != nil {
				c.fail(err)
				return
			}
			id, msg = g.ID, g
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
			c.fail(corruptf("unexpected frame kind %d from server", kind))
			return
		}
		c.deliver(id, response{msg: msg})
	}
}

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
