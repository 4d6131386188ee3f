package main

import (
	"bytes"
	"strings"
	"testing"
)

// The tables' contents are pinned by the root package's golden files;
// these tests cover only the command's flag and format handling.

func TestRunCRPAndRIP(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "crp", 17, 1, "text"); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(&out, "rip", 19, 1, "csv"); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "B,RIP=100,") {
		t.Errorf("csv output missing header:\n%s", out.String())
	}
	out.Reset()
	if err := run(&out, "crp", 17, 1, "yaml"); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestRunUnknownTable(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "9.9", 1, 1, "text"); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestDefaultSeed(t *testing.T) {
	if got := defaultSeed(0, 7); got != 7 {
		t.Errorf("defaultSeed(0,7) = %d", got)
	}
	if got := defaultSeed(5, 7); got != 5 {
		t.Errorf("defaultSeed(5,7) = %d", got)
	}
}
