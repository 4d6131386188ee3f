package storage

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/policy"
)

func TestIsTransient(t *testing.T) {
	permanent := errors.New("disk: head crash")
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"injected fault", ErrInjectedFault, true},
		{"wrapped injected fault", fmt.Errorf("read page 7: %w", ErrInjectedFault), true},
		{"page not allocated", ErrPageNotAllocated, false},
		{"unknown error", permanent, false},
		{"marked transient", MarkTransient(permanent), true},
		{"wrapped marked transient", fmt.Errorf("write page 3: %w", MarkTransient(permanent)), true},
	}
	for _, tc := range cases {
		if got := IsTransient(tc.err); got != tc.want {
			t.Errorf("%s: IsTransient = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestMarkTransientNil(t *testing.T) {
	if MarkTransient(nil) != nil {
		t.Error("MarkTransient(nil) != nil")
	}
}

// TestMarkTransientUnwraps: marking must not hide the underlying error from
// errors.Is, so callers can both retry on transience and still match the
// root cause.
func TestMarkTransientUnwraps(t *testing.T) {
	base := errors.New("scsi: bus reset")
	err := MarkTransient(base)
	if !errors.Is(err, base) {
		t.Error("marked error does not unwrap to its cause")
	}
	if err.Error() != base.Error() {
		t.Errorf("marked error message %q, want %q", err.Error(), base.Error())
	}
}

// TestStripeIndex pins range, determinism and dispersion of the shared
// stripe hash every backend uses.
func TestStripeIndex(t *testing.T) {
	const n = 32
	seen := make(map[int]bool)
	for p := 0; p < 4096; p++ {
		idx := StripeIndex(policy.PageID(p), n)
		if idx < 0 || idx >= n {
			t.Fatalf("StripeIndex(%d) = %d, outside [0, %d)", p, idx, n)
		}
		if idx != StripeIndex(policy.PageID(p), n) {
			t.Fatalf("StripeIndex(%d) not deterministic", p)
		}
		seen[idx] = true
	}
	if len(seen) != n {
		t.Errorf("4096 sequential pages hit only %d/%d stripes", len(seen), n)
	}
}
