package cluster

import "time"

// WithRetry sets the unexported retry posture for the external test
// package: zero values keep the production defaults.
func (c Config) WithRetry(maxAttempts int, busyBackoff, maxBackoff time.Duration) Config {
	c.maxAttempts, c.busyBackoff, c.maxBackoff = maxAttempts, busyBackoff, maxBackoff
	return c
}

// WithBatchSize sets the unexported handoff batch size for the external
// test package: zero keeps the production default.
func (c RebalanceConfig) WithBatchSize(n int) RebalanceConfig {
	c.batchSize = n
	return c
}
