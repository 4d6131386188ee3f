package main

import (
	"bytes"
	"context"
	"testing"
)

// TestBadSubcommand: anything but view/add/remove/trace is a usage error —
// including serve, which is gone (a cluster is N lrukd processes; the
// scenario package drives the subcommands against real ones).
func TestBadSubcommand(t *testing.T) {
	for _, args := range [][]string{{"bogus"}, {"serve"}, nil} {
		var out, errB bytes.Buffer
		if code := run(context.Background(), args, &out, &errB); code != 2 {
			t.Errorf("lrukcluster %v exited %d, want 2", args, code)
		}
	}
}
