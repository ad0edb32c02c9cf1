package serve

import (
	"container/list"
	"hash/maphash"
	"sync"

	"repro/internal/core"
)

// key identifies a raw record without storing its text: two independent
// 64-bit hashes plus the length, plus the cache generation current when
// the key was computed. h1 and h2 are maphashes of the text under two
// independent per-server random seeds; h1 also selects the shard. A
// false cache hit needs all three hash dimensions to collide — with 128+
// bits of independent hash over same-length texts that is beyond
// negligible. gen makes model identity part of record identity: a swap
// bumps the generation, so entries written under the old model can never
// answer a request admitted under the new one.
type key struct {
	h1  uint64
	h2  uint64
	n   int
	gen uint64
}

// hashSeed carries the per-server maphash seeds of h1 and h2, so keys
// are only comparable within one Server (cache keys never persist).
type hashSeed struct{ s1, s2 maphash.Seed }

func makeHashSeed() hashSeed { return hashSeed{maphash.MakeSeed(), maphash.MakeSeed()} }

// hashKey computes the cache/coalescing key for a raw record under one
// cache generation. Zero allocations: maphash.String hashes the string
// without copying. The generation rides as its own key field rather than
// being mixed into the hashes, so shard selection (h1) is stable across
// swaps.
func (s *Server) hashKey(text string, gen uint64) key {
	return key{
		h1:  maphash.String(s.seed.s1, text),
		h2:  maphash.String(s.seed.s2, text),
		n:   len(text),
		gen: gen,
	}
}

// entry is one cached parse result.
type entry struct {
	k   key
	rec *core.ParsedRecord
}

// shard is one lock domain of the cache: an LRU of parsed records plus
// the singleflight registry for keys currently being parsed. Both live
// under one mutex so the lookup→coalesce→register sequence is atomic.
type shard struct {
	mu       sync.Mutex
	capacity int // 0 disables caching
	entries  map[key]*list.Element
	lru      list.List // front = most recently used
	inflight map[key]*call
}

func (sh *shard) init(capacity int) {
	sh.capacity = capacity
	sh.entries = make(map[key]*list.Element)
	sh.inflight = make(map[key]*call)
	sh.lru.Init()
}

// get returns the cached record for k, promoting it to most recently
// used. Callers hold sh.mu.
func (sh *shard) get(k key) (*core.ParsedRecord, bool) {
	el, ok := sh.entries[k]
	if !ok {
		return nil, false
	}
	sh.lru.MoveToFront(el)
	return el.Value.(*entry).rec, true
}

// add caches rec under k, evicting the least recently used entry when
// over capacity. Callers hold sh.mu.
func (sh *shard) add(k key, rec *core.ParsedRecord) {
	if sh.capacity <= 0 {
		return
	}
	if el, ok := sh.entries[k]; ok {
		el.Value.(*entry).rec = rec
		sh.lru.MoveToFront(el)
		return
	}
	sh.entries[k] = sh.lru.PushFront(&entry{k: k, rec: rec})
	for sh.lru.Len() > sh.capacity {
		oldest := sh.lru.Back()
		sh.lru.Remove(oldest)
		delete(sh.entries, oldest.Value.(*entry).k)
	}
}
