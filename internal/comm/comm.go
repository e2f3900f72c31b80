// Package comm holds shard ownership: which GPU, or which shard node, owns
// a key. The simulator's message-based engines, the sharded stores and the
// shard cluster all place keys with Owner, so they agree on placement. The
// time cost of moving a key between owners comes from internal/hw.
package comm

import "fmt"

// Owner returns the GPU that owns key under the sharding placement used by
// HugeCTR-style caches and by Frugal (§5: "Frugal pertains to a sharding
// policy in essence"). The key is mixed first so that contiguous key
// ranges spread evenly.
func Owner(key uint64, numGPUs int) int {
	if numGPUs <= 0 {
		panic(fmt.Sprintf("comm: numGPUs must be positive, got %d", numGPUs))
	}
	h := key
	h ^= h >> 31
	h *= 0x7fb5d329728ea185
	h ^= h >> 27
	return int(h % uint64(numGPUs))
}
