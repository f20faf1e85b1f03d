package server

// Status is the server's error vocabulary: one exported classification
// every serving surface maps through. Before PR 8, the HTTP handlers
// picked http.Status* codes ad hoc and tcp.go mirrored them in a
// separate wireStatus switch; the cluster tier would have added a third
// copy. Now classification happens once (Classify) and each surface
// renders a Status through the single table below — the HTTP code and
// the wire status of one condition can no longer drift apart.
// docs/protocol.md documents the vocabulary.

import (
	"errors"
	"fmt"
	"net/http"

	"spatialtree/internal/engine"
	"spatialtree/internal/mincut"
	"spatialtree/internal/treefix"
	"spatialtree/internal/wire"
)

// Status classifies a serving outcome.
type Status int

// The status vocabulary. Order is stable (the zero value is StatusOK);
// the on-wire numbering lives in internal/wire, not here.
const (
	// StatusOK: the request succeeded.
	StatusOK Status = iota
	// StatusBadRequest: the client's fault — malformed body, invalid
	// query, unknown operator or backend.
	StatusBadRequest
	// StatusNotFound: the tree or shard id is unknown.
	StatusNotFound
	// StatusTooMany: admission refused — the request queue or the
	// MaxShards budget is full. Backpressure; retry later.
	StatusTooMany
	// StatusUnavailable: the server is draining (or, in a cluster, the
	// shard's owner is unreachable). The request was not admitted, so
	// re-sending cannot double-apply.
	StatusUnavailable
	// StatusTooLarge: the request body or frame exceeds the size limit.
	StatusTooLarge
	// StatusRedirect: another cluster node owns the addressed shard;
	// the response carries its address. Smart clients re-issue there.
	StatusRedirect
	// StatusInternal: the server's fault.
	StatusInternal
)

// statusTable is the single mapping from the vocabulary to both
// protocol surfaces. Every status renders through it; no handler picks
// an HTTP code or wire status directly.
var statusTable = [...]struct {
	http int
	wire wire.Status
	name string
}{
	StatusOK:          {http.StatusOK, wire.StatusOK, "ok"},
	StatusBadRequest:  {http.StatusBadRequest, wire.StatusBadRequest, "bad_request"},
	StatusNotFound:    {http.StatusNotFound, wire.StatusNotFound, "not_found"},
	StatusTooMany:     {http.StatusTooManyRequests, wire.StatusTooMany, "too_many"},
	StatusUnavailable: {http.StatusServiceUnavailable, wire.StatusUnavailable, "unavailable"},
	StatusTooLarge:    {http.StatusRequestEntityTooLarge, wire.StatusTooLarge, "too_large"},
	StatusRedirect:    {http.StatusMisdirectedRequest, wire.StatusRedirect, "redirect"},
	StatusInternal:    {http.StatusInternalServerError, wire.StatusInternal, "internal"},
}

func (st Status) valid() bool { return st >= 0 && int(st) < len(statusTable) }

// HTTP returns the status's HTTP response code.
func (st Status) HTTP() int {
	if !st.valid() {
		return http.StatusInternalServerError
	}
	return statusTable[st].http
}

// Wire returns the status's binary-protocol status.
func (st Status) Wire() wire.Status {
	if !st.valid() {
		return wire.StatusInternal
	}
	return statusTable[st].wire
}

func (st Status) String() string {
	if !st.valid() {
		return fmt.Sprintf("status(%d)", int(st))
	}
	return statusTable[st].name
}

// statusError attaches a Status to an error; Classify honors it over
// the sentinel rules.
type statusError struct {
	st  Status
	err error
}

func (e statusError) Error() string { return e.err.Error() }
func (e statusError) Unwrap() error { return e.err }

// Is keeps sentinel checks consistent with the explicit
// classification: a statusError marked as a client fault matches
// errBadRequest, the sentinel the rest of the vocabulary uses.
func (e statusError) Is(target error) bool {
	return target == errBadRequest && e.st == StatusBadRequest
}

// statusErr classifies err as st.
func statusErr(st Status, err error) error { return statusError{st: st, err: err} }

// statusErrf builds a classified error.
//
//spatialvet:errclass
func statusErrf(st Status, format string, args ...any) error {
	return statusErr(st, fmt.Errorf(format, args...))
}

// Err classifies err as st — the cluster tier's handle on the
// vocabulary (in-package paths use the unexported twins).
func Err(st Status, err error) error { return statusErr(st, err) }

// Errf builds a classified error from a format string.
//
//spatialvet:errclass
func Errf(st Status, format string, args ...any) error {
	return statusErrf(st, format, args...)
}

// RedirectTo reports that the node at addr owns the addressed shard.
// Classify maps it to StatusRedirect; both render paths carry addr
// (HTTP in the body and X-Spatialtree-Owner, wire as the error message),
// the address a caller re-issues the request at.
func RedirectTo(addr string) error { return redirectError{Addr: addr} }

// StatusFromWire maps a wire status back into the vocabulary — the
// proxy path's inverse of Status.Wire, so an error a shard owner
// classified re-renders identically at the proxying edge.
func StatusFromWire(ws wire.Status) Status {
	for st := StatusOK; st.valid(); st++ {
		if statusTable[st].wire == ws {
			return st
		}
	}
	return StatusInternal
}

// redirectError reports that another node owns the addressed shard.
// Classify maps it to StatusRedirect; the render paths surface Addr.
type redirectError struct{ Addr string }

func (e redirectError) Error() string {
	return "shard is owned by " + e.Addr
}

// errBadRequest classifies errors the client caused (malformed query,
// unknown operator) as distinct from server-side failures; Classify
// maps it to StatusBadRequest. The wrapper keeps the original message.
var errBadRequest = errors.New("server: bad request")

type badRequestError struct{ error }

func (badRequestError) Is(target error) bool { return target == errBadRequest }

func badRequest(err error) error { return badRequestError{err} }

// Classify maps a serving error onto the status vocabulary: explicit
// statusError classifications and redirects first, then the classified
// sentinels — faults in the request itself (engine/mincut validation,
// unsupported operators, malformed bodies) are the client's, admission
// refusals are backpressure, and everything else — backend dispatch,
// journal repair, shard resolution — is the server's.
func Classify(err error) Status {
	if err == nil {
		return StatusOK
	}
	var se statusError
	if errors.As(err, &se) {
		return se.st
	}
	var re redirectError
	if errors.As(err, &re) {
		return StatusRedirect
	}
	if errors.Is(err, engine.ErrInvalid) || errors.Is(err, mincut.ErrInvalid) ||
		errors.Is(err, treefix.ErrUnsupportedOp) || errors.Is(err, treefix.ErrInvalid) ||
		errors.Is(err, errBadRequest) {
		return StatusBadRequest
	}
	if errors.Is(err, errShardLimit) {
		return StatusTooMany
	}
	return StatusInternal
}

// writeStatus renders a non-OK status on the HTTP surface.
func writeStatus(w http.ResponseWriter, st Status, msg string) {
	writeJSON(w, st.HTTP(), ErrorResponse{Error: msg, Status: st.String()})
}

// writeErr classifies err and renders it on the HTTP surface. Redirects
// additionally carry the owner address, both in the response body and
// in an X-Spatialtree-Owner header (the binary-protocol address — 421
// has no Location semantics for a non-HTTP endpoint).
func writeErr(w http.ResponseWriter, err error) {
	st := Classify(err)
	var re redirectError
	if errors.As(err, &re) {
		w.Header().Set("X-Spatialtree-Owner", re.Addr)
		writeJSON(w, st.HTTP(), ErrorResponse{Error: err.Error(), Status: st.String(), Owner: re.Addr})
		return
	}
	writeStatus(w, st, err.Error())
}

// wireErr classifies err for the binary surface: its wire status and
// the message to carry (redirects carry the bare owner address, where
// the caller re-issues the request).
func wireErr(err error) (wire.Status, string) {
	var re redirectError
	if errors.As(err, &re) {
		return wire.StatusRedirect, re.Addr
	}
	return Classify(err).Wire(), err.Error()
}
