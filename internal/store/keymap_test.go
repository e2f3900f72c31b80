package store_test

import (
	"testing"

	"frugal/internal/comm"
	"frugal/internal/store"
)

func TestKeyMapPartition(t *testing.T) {
	const rows, of = 1000, 3
	maps := make([]*store.KeyMap, of)
	for i := range maps {
		km, err := store.NewKeyMap(rows, i, of)
		if err != nil {
			t.Fatal(err)
		}
		maps[i] = km
	}
	var owned int64
	for _, km := range maps {
		owned += km.Owned()
	}
	if owned != rows {
		t.Fatalf("shards own %d rows in total, want %d", owned, rows)
	}
	for key := uint64(0); key < rows; key++ {
		want := comm.Owner(key, of)
		for i, km := range maps {
			local, ok := km.Local(key)
			if (i == want) != ok {
				t.Fatalf("key %d: shard %d Local ok=%v, owner is %d", key, i, ok, want)
			}
			if ok && km.Global(local) != key {
				t.Fatalf("key %d: Global(Local) = %d", key, km.Global(local))
			}
		}
	}
	if _, err := store.NewKeyMap(rows, 3, 3); err == nil {
		t.Fatal("shard index == of accepted")
	}
	if _, err := store.NewKeyMap(0, 0, 1); err == nil {
		t.Fatal("zero rows accepted")
	}
}
