package sim

import (
	"repro/internal/db"
	"repro/internal/stats"
)

// Example11Result reports one run of the Example 1.1 workload.
type Example11Result struct {
	K             int
	Frames        int
	Lookups       int
	HitRatio      float64
	ResidentIndex int
	ResidentData  int
	DiskReads     uint64
	ServiceMicros int64
}

// RunExample11 executes the paper's Example 1.1 end to end through the
// database: load customers, then perform random lookups through the index,
// and report how the pool's residency split between index and data pages.
// With K=1 roughly half the frames end up holding data pages; with K=2 the
// index pages (each 100x more frequently referenced than any data page)
// win the frames. K and Frames echo cfg.
func RunExample11(cfg db.Config, customers, lookups int, seed uint64) (Example11Result, error) {
	d, err := db.Open(cfg)
	if err != nil {
		return Example11Result{}, err
	}
	defer d.Close()
	if err := d.LoadCustomers(customers); err != nil {
		return Example11Result{}, err
	}
	// Count only the lookup phase, on the disk too: the load's parallel
	// writes are priced in whatever order they arrive.
	pre, preDisk := d.PoolStats(), d.StatsSnapshot().Disk
	r := stats.NewRNG(seed)
	for i := 0; i < lookups; i++ {
		id := int64(r.Intn(customers))
		if _, err := d.Lookup(id); err != nil {
			return Example11Result{}, err
		}
	}
	s := d.PoolStats()
	hits := s.Hits - pre.Hits
	misses := s.Misses - pre.Misses
	ri, rd := d.ResidentByClass()
	disk := d.StatsSnapshot().Disk
	res := Example11Result{
		K:             cfg.K,
		Frames:        cfg.Frames,
		Lookups:       lookups,
		ResidentIndex: ri,
		ResidentData:  rd,
		DiskReads:     disk.Reads - preDisk.Reads,
		ServiceMicros: disk.ServiceMicros - preDisk.ServiceMicros,
	}
	if total := hits + misses; total > 0 {
		res.HitRatio = float64(hits) / float64(total)
	}
	return res, nil
}
