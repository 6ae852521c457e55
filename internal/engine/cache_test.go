package engine

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"sparseadapt/internal/config"
	"sparseadapt/internal/fault"
)

// TestKeyStability pins the key derivation to a recorded constant: the same
// field sequence must hash to the same address in every process, on every
// platform, forever — that is what lets on-disk caches survive restarts.
// If this test fails the derivation changed and every persisted cache is
// silently stale: bump the Hasher domain versions instead.
func TestKeyStability(t *testing.T) {
	k := NewHasher("sparseadapt/test/v1").Str("spmspm").Int(3, 7).F64(1e9).U64(42).I64(-5).Sum()
	const want = "865e70819166c5d636f583b90a07d2416b40d8b7d85b36aa8e1fb451d06236ba"
	if k.String() != want {
		t.Fatalf("key derivation drifted:\n got %s\nwant %s", k, want)
	}
	if k2 := NewHasher("sparseadapt/test/v1").Str("spmspm").Int(3, 7).F64(1e9).U64(42).I64(-5).Sum(); k2 != k {
		t.Fatal("same fields produced different keys")
	}
}

// TestKeyFraming asserts the length-prefixed framing prevents
// concatenation collisions between different field splits.
func TestKeyFraming(t *testing.T) {
	a := NewHasher("d").Str("ab").Str("c").Sum()
	b := NewHasher("d").Str("a").Str("bc").Sum()
	if a == b {
		t.Fatal("field framing collides on concatenation")
	}
	if NewHasher("d1").Str("x").Sum() == NewHasher("d2").Str("x").Sum() {
		t.Fatal("domain is not part of the key")
	}
	if NewHasher("d").I64(1).Sum() == NewHasher("d").U64(1).Sum() {
		t.Fatal("field type tag is not part of the key")
	}
}

// TestKeyCollisionResistanceOverConfigs derives a key for every point of
// the configuration space, under two chips and two bandwidths each,
// the way oracle recording does, and requires them all distinct.
func TestKeyCollisionResistanceOverConfigs(t *testing.T) {
	seen := map[Key]string{}
	for _, chip := range [][2]int{{2, 8}, {4, 16}} {
		for _, bw := range []float64{1e9, 1e10} {
			for i, n := 0, config.SpaceSize(); i < n; i++ {
				c := config.FromIndex(i)
				k := NewHasher("sparseadapt/oracle-row/v1").
					U64(0xfeed).Int(5000).F64(1).
					Int(chip[0], chip[1]).F64(bw).
					Int(c.Index()).Sum()
				id := c.String()
				if prev, dup := seen[k]; dup {
					t.Fatalf("key collision between %q and %q", prev, id)
				}
				seen[k] = id
			}
		}
	}
	if len(seen) != 2*2*config.SpaceSize() {
		t.Fatalf("expected %d distinct keys, got %d", 2*2*config.SpaceSize(), len(seen))
	}
}

// TestCacheLRUEviction checks the memory tier evicts least-recently-used
// entries and that a Get refreshes recency.
func TestCacheLRUEviction(t *testing.T) {
	c, err := NewCache(2, "")
	if err != nil {
		t.Fatal(err)
	}
	k := func(i int) Key { return NewHasher("t").Int(i).Sum() }
	c.Put(k(1), []byte("a"))
	c.Put(k(2), []byte("b"))
	if _, ok := c.Get(k(1)); !ok { // refresh 1 → 2 becomes LRU
		t.Fatal("entry 1 missing")
	}
	c.Put(k(3), []byte("c")) // evicts 2
	if _, ok := c.Get(k(2)); ok {
		t.Fatal("LRU entry 2 survived eviction")
	}
	if _, ok := c.Get(k(1)); !ok {
		t.Fatal("recently-used entry 1 was evicted")
	}
	if _, ok := c.Get(k(3)); !ok {
		t.Fatal("newest entry 3 missing")
	}
	if c.MemLen() != 2 {
		t.Fatalf("mem tier holds %d entries, want 2", c.MemLen())
	}
}

// TestCacheDiskTierSurvivesRestart writes through one Cache and reads from
// a fresh one over the same directory — the process-restart scenario the
// content addressing exists for.
func TestCacheDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	k := NewHasher("t").Str("row").Sum()
	val := []byte("simulated epoch records")

	c1, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	c1.Put(k, val)

	c2, err := NewCache(8, dir) // fresh process: empty memory tier
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(k)
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("disk tier lost the entry across restart: ok=%v val=%q", ok, got)
	}
	// The disk hit must have promoted into memory.
	if c2.MemLen() != 1 {
		t.Fatalf("disk hit not promoted to memory tier (len %d)", c2.MemLen())
	}
}

// TestCacheCorruptEntryRecomputed flips bits in an on-disk entry with the
// fault-injection helpers and verifies the checksum catches it: the Get
// misses, the bad file is removed, and an engine task recomputes and
// re-persists the value.
func TestCacheCorruptEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	key := NewHasher("t").Str("row").Sum()

	cache, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	var computed atomic.Int64
	task := Task[[]int]{Key: key, Compute: func(ctx context.Context) ([]int, error) {
		computed.Add(1)
		return []int{1, 2, 3}, nil
	}}
	e := New(Options{Workers: 1, Cache: cache})
	if _, err := Map(context.Background(), e, []Task[[]int]{task}); err != nil {
		t.Fatal(err)
	}
	if computed.Load() != 1 {
		t.Fatalf("computed %d, want 1", computed.Load())
	}

	// Corrupt the persisted entry, then start a "new process".
	path := filepath.Join(dir, key.String()+".bin")
	if err := fault.CorruptFile(path, 7, 4); err != nil {
		t.Fatal(err)
	}
	cache2, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cache2.Get(key); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if _, _, corrupt := cache2.Counts(); corrupt != 1 {
		t.Fatalf("corruption not counted: %d", corrupt)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt entry file not removed")
	}

	e2 := New(Options{Workers: 1, Cache: cache2})
	got, err := Map(context.Background(), e2, []Task[[]int]{task})
	if err != nil {
		t.Fatal(err)
	}
	if computed.Load() != 2 {
		t.Fatalf("corrupt entry was not recomputed (computed=%d)", computed.Load())
	}
	if len(got[0]) != 3 || got[0][2] != 3 {
		t.Fatalf("recomputed value wrong: %v", got[0])
	}
	// And the rewrite must be intact again.
	cache3, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cache3.Get(key); !ok {
		t.Fatal("recomputed entry not re-persisted")
	}
}

// TestCacheTruncatedEntryRecovered covers the interrupted-write model: a
// file cut short must read as a miss, not a crash.
func TestCacheTruncatedEntryRecovered(t *testing.T) {
	dir := t.TempDir()
	k := NewHasher("t").Str("x").Sum()
	c, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(k, bytes.Repeat([]byte("v"), 100))
	if err := fault.TruncateFile(filepath.Join(dir, k.String()+".bin"), 0.2); err != nil {
		t.Fatal(err)
	}
	c2, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(k); ok {
		t.Fatal("truncated entry served as a hit")
	}
}
