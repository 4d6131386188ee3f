package storage

import "errors"

// ErrNoSpace reports that the backing device is out of space. The file
// backend maps ENOSPC from page-file extension and WAL appends onto it;
// tests inject it with a FaultRule.
var ErrNoSpace = errors.New("storage: device out of space")
