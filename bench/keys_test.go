package main

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/db"
)

func TestStreamsAreAPureFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		for c := 0; c < numClients; c++ {
			a, b := w.Stream(7, c, 5000), w.Stream(7, c, 5000)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s client %d: same seed gave different streams", w.Name, c)
			}
			if reflect.DeepEqual(a, w.Stream(8, c, 5000)) {
				t.Errorf("%s client %d: seeds 7 and 8 gave the same stream", w.Name, c)
			}
		}
		if reflect.DeepEqual(w.Stream(7, 0, 5000), w.Stream(7, 1, 5000)) {
			t.Errorf("%s: both clients got the same stream", w.Name)
		}
	}
}

func TestClientsTouchDisjointCustomersInRange(t *testing.T) {
	for _, w := range workloads {
		for c := 0; c < numClients; c++ {
			for _, op := range w.Stream(1, c, 20000) {
				if cust := op.Cust(); cust < 0 || cust >= int64(w.Customers) || int(cust)%recordsPerPage != c {
					t.Fatalf("%s client %d: customer %d outside its partition of %d customers", w.Name, c, cust, w.Customers)
				}
			}
		}
	}
}

func updateShare(ops []Op) float64 {
	n := 0
	for _, op := range ops {
		if op.Fill() != 0 {
			n++
		}
	}
	return float64(n) / float64(len(ops))
}

func TestTwoPoolStreamAlternatesHotAndCold(t *testing.T) {
	w := findWorkload("embed_twopool_mixed")
	ops := w.Stream(1, 0, 40000)
	cold := map[int64]bool{}
	for i, op := range ops {
		page := int(op.Cust()) / recordsPerPage
		if hot := page < w.HotPages; hot != (i%2 == 0) {
			t.Fatalf("op %d references page %d: the stream must alternate hot (even ops) and cold", i, page)
		}
		if page >= w.HotPages {
			cold[int64(page)] = true
		}
	}
	if len(cold) < w.dataPages()/2 {
		t.Errorf("20,000 cold draws touched only %d of %d cold pages", len(cold), w.dataPages()-w.HotPages)
	}
	if s := updateShare(ops); math.Abs(s-w.UpdateShare) > 0.01 {
		t.Errorf("update share %.3f, want %.2f", s, w.UpdateShare)
	}
}

func TestZipfStreamIsEightyTwenty(t *testing.T) {
	w := findWorkload("net_durable_mixed")
	ops := w.Stream(1, 1, 40000)
	inHottestFifth := 0
	for _, op := range ops {
		if int(op.Cust())/recordsPerPage < w.dataPages()/5 {
			inHottestFifth++
		}
	}
	if share := float64(inHottestFifth) / float64(len(ops)); math.Abs(share-0.80) > 0.02 {
		t.Errorf("hottest 20%% of pages drew %.3f of the references, want 0.80", share)
	}
	if s := updateShare(ops); math.Abs(s-w.UpdateShare) > 0.01 {
		t.Errorf("update share %.3f, want %.2f", s, w.UpdateShare)
	}
}

func TestReadOnlyStreamsHoldNoUpdates(t *testing.T) {
	for _, name := range []string{"embed_hot_read", "cluster_hot_read"} {
		if s := updateShare(findWorkload(name).Stream(1, 0, 10000)); s != 0 {
			t.Errorf("%s: update share %.3f, want 0", name, s)
		}
	}
}

// The workloads' shapes are claims about the pool: a hot set, with the whole
// index, fits the 404 frames; a population meant to miss does not.
func TestHotSetsAgainstPoolSize(t *testing.T) {
	for _, w := range workloads {
		d, err := db.Open(dbConfig(nil))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.LoadCustomers(w.Customers); err != nil {
			t.Fatal(err)
		}
		index, data := d.IndexPages(), d.DataPages()
		d.Close()
		if data != w.dataPages() {
			t.Errorf("%s: %d customers occupy %d data pages, want %d", w.Name, w.Customers, data, w.dataPages())
		}
		if w.HotPages > 0 && w.HotPages+index >= frames {
			t.Errorf("%s: hot set of %d pages + %d index pages does not fit %d frames", w.Name, w.HotPages, index, frames)
		}
		if w.HotPages < data && w.StreamCap == 0 && data <= 2*frames {
			t.Errorf("%s: %d data pages are not well beyond the %d frames; the workload would not miss", w.Name, data, frames)
		}
	}
}
