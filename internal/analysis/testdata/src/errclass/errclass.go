// Package errclass exercises the error-classification analyzer: a
// function marked //spatialvet:errclass sits on a status-mapping
// boundary and must construct only classified errors.
package errclass

import (
	"errors"
	"fmt"
)

// ErrBad is the package's classification sentinel.
var ErrBad = errors.New("errclass: bad request")

type badErr struct{ error }

func (badErr) Is(target error) bool { return target == ErrBad }

// classify is the sanctioned constructor: anything wrapped in it maps
// to the sentinel.
func classify(err error) error { return badErr{err} }

// BrokenRaw returns an untyped error from a boundary: errStatus-style
// mapping cannot classify it.
//
//spatialvet:errclass
func BrokenRaw(kind string) error {
	return fmt.Errorf("unknown kind %q", kind) // want "unclassified fmt.Errorf in classification boundary BrokenRaw"
}

// BrokenNew shows errors.New is just as untyped.
//
//spatialvet:errclass
func BrokenNew() error {
	return errors.New("nope") // want "unclassified errors.New in classification boundary BrokenNew"
}

// CleanConstructor wraps through the sanctioned constructor.
//
//spatialvet:errclass
func CleanConstructor(kind string) error {
	return classify(fmt.Errorf("unknown kind %q", kind))
}

// CleanWrap carries the sentinel via %w.
//
//spatialvet:errclass
func CleanWrap(kind string) error {
	return fmt.Errorf("%w: unknown kind %q", ErrBad, kind)
}

// CleanUnmarked is not a boundary: raw errors are fine off the
// classification surface.
func CleanUnmarked() error {
	return fmt.Errorf("internal detail")
}

// carrier holds the sentinel its errors wrap, the shape of a shared
// decoder each package hands its own sentinel. Every store into its
// error fields is checked, so reading one yields a classified error.
//
//spatialvet:errclass
type carrier struct {
	name    string
	corrupt error
}

var good = carrier{name: "good", corrupt: ErrBad}

var bad = carrier{name: "bad", corrupt: errors.New("bad")} // want "unclassified error stored in field corrupt of errclass type errclass.carrier"

var positional = carrier{"positional", fmt.Errorf("raw")} // want "unclassified error stored in field corrupt of errclass type errclass.carrier"

func (c *carrier) reset(err error) {
	c.corrupt = ErrBad
	c.corrupt = err // want "unclassified error stored in field corrupt of errclass type errclass.carrier"
}

// CleanCarried wraps the carried sentinel.
//
//spatialvet:errclass
func CleanCarried(kind string) error {
	return fmt.Errorf("%w: unknown kind %q", good.corrupt, kind)
}

// plain is not a carrier: its error field may hold anything, so
// wrapping it classifies nothing.
type plain struct{ err error }

var loose = plain{err: errors.New("loose")}

// BrokenPlainField wraps an unmarked field.
//
//spatialvet:errclass
func BrokenPlainField() error {
	return fmt.Errorf("%w: x", loose.err) // want "unclassified fmt.Errorf in classification boundary BrokenPlainField"
}
