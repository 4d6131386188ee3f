package cluster

import "time"

// WithRetry sets the unexported retry posture for the external test
// package: zero values keep the production defaults.
func (c Config) WithRetry(maxAttempts int, busyBackoff, maxBackoff time.Duration) Config {
	c.maxAttempts, c.busyBackoff, c.maxBackoff = maxAttempts, busyBackoff, maxBackoff
	return c
}
