package ckpt

// SafeStep exposes a replica row's safe step to the package's external
// tests.
func (r *Replica) SafeStep(key uint64) int64 { return r.safe[key].Load() }
