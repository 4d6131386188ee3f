package storage

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/policy"
)

// ErrNoSpace reports that the backing device is out of space. The file
// backend maps ENOSPC from page-file extension and WAL appends onto it;
// tests inject it with a storagetest.Rule.
var ErrNoSpace = errors.New("storage: device out of space")

// CorruptKind classifies a detected corruption — informational taxonomy;
// every kind is handled the same way (repair, else quarantine).
type CorruptKind uint8

const (
	// CorruptChecksum is a payload/trailer checksum mismatch: bit rot, a
	// torn write the checker cannot distinguish from it, or any other
	// in-place mutilation of the stored bytes.
	CorruptChecksum CorruptKind = iota + 1
	// CorruptTorn is a write torn mid-slot (first sectors new, rest old).
	// Self-verifying stores report it as CorruptChecksum; the injection
	// wrapper labels it distinctly so tests can steer per-kind rules.
	CorruptTorn
	// CorruptMisdirect is a write that landed on the wrong slot: the stored
	// image carries a valid checksum for a different page id.
	CorruptMisdirect
)

// String names the kind for logs and error text.
func (k CorruptKind) String() string {
	switch k {
	case CorruptChecksum:
		return "checksum"
	case CorruptTorn:
		return "torn"
	case CorruptMisdirect:
		return "misdirect"
	}
	return fmt.Sprintf("corrupt-kind-%d", uint8(k))
}

// ErrCorrupt reports that a page's stored image failed integrity
// verification. Rereading the same rotten bytes cannot change the outcome;
// the pool's read-repair path handles it instead.
type ErrCorrupt struct {
	Page policy.PageID
	Kind CorruptKind
}

// Error implements error.
func (e *ErrCorrupt) Error() string {
	return fmt.Sprintf("storage: page %d corrupt (%s)", e.Page, e.Kind)
}

// AsCorrupt extracts the typed corruption error from err's chain.
func AsCorrupt(err error) (*ErrCorrupt, bool) {
	var ce *ErrCorrupt
	if errors.As(err, &ce) {
		return ce, true
	}
	return nil, false
}

// IsCorrupt reports whether err's chain contains an ErrCorrupt.
func IsCorrupt(err error) bool {
	_, ok := AsCorrupt(err)
	return ok
}

// Repairer is implemented by backends (and wrappers) that can attempt to
// restore a corrupt page from redundant state — the file backend replays
// the page's most recent image from the WAL tail. A nil return means the
// page now verifies intact; an ErrCorrupt return means no good image was
// available (the caller quarantines the page).
type Repairer interface {
	RepairPage(ctx context.Context, p policy.PageID) error
}
