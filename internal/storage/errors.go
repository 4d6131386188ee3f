package storage

import "errors"

// This file classifies storage errors as transient (worth retrying: the
// same operation may succeed if reissued) or permanent (retrying is wasted
// time: the page does not exist, the buffer is malformed, the device
// rejected the request for a structural reason). The buffer pool's retry
// and circuit-breaker machinery keys off this classification.

// ErrNoSpace reports that the backing device is out of space. It is
// permanent under IsTransient: reissuing the identical allocation or append
// cannot succeed until an operator frees space, so callers must fail fast
// (and let the circuit breaker shed load) instead of spinning the retry
// ladder. The file backend maps ENOSPC from page-file extension and WAL
// appends onto it; tests inject it with a FaultRule.
var ErrNoSpace = errors.New("storage: device out of space")

// TransientMarker is implemented by errors that declare their own
// retryability. MarkTransient wraps an arbitrary error with it.
type TransientMarker interface {
	// Transient reports whether the operation that produced the error may
	// succeed if simply retried.
	Transient() bool
}

type transientError struct{ err error }

func (e *transientError) Error() string   { return e.err.Error() }
func (e *transientError) Unwrap() error   { return e.err }
func (e *transientError) Transient() bool { return true }

// MarkTransient wraps err so IsTransient reports true for it (and for any
// error wrapping it). A nil err stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err is worth retrying. An error is transient
// when it is (or wraps) ErrInjectedFault — injected faults model the
// environmental failures (cable hiccups, controller timeouts) that clear on
// their own — or when an error in its chain implements TransientMarker and
// declares itself transient. Everything else, ErrPageNotAllocated, the
// pool's breaker refusals and malformed-buffer errors included, is permanent:
// reissuing the identical request cannot change the outcome.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var m TransientMarker
	if errors.As(err, &m) {
		return m.Transient()
	}
	return errors.Is(err, ErrInjectedFault)
}
