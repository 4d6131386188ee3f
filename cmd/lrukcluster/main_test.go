package main

import (
	"bytes"
	"context"
	"slices"
	"strings"
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

// TestRebalanceFlags pins add and remove at three flags each: -cluster,
// -node and -addr. The key population comes from a SCAN of the contacted
// node and the handoff batch is the coordinator's own, so neither is a
// flag.
func TestRebalanceFlags(t *testing.T) {
	for _, verb := range []string{"add", "remove"} {
		var out, errB bytes.Buffer
		if code := run(context.Background(), []string{verb, "-h"}, &out, &errB); code != 2 {
			t.Fatalf("lrukcluster %s -h exited %d, want 2", verb, code)
		}
		var flags []string
		for _, line := range strings.Split(errB.String(), "\n") {
			if name, ok := strings.CutPrefix(line, "  -"); ok {
				flags = append(flags, strings.Fields(name)[0])
			}
		}
		if want := []string{"addr", "cluster", "node"}; !slices.Equal(flags, want) {
			t.Errorf("lrukcluster %s flags = %v, want %v", verb, flags, want)
		}
	}
}
