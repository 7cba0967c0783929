package parparaw

import (
	"container/list"
	"encoding/binary"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultCacheEngines is the EngineCache capacity used when
// NewEngineCache is given a non-positive size.
const DefaultCacheEngines = 64

// Fingerprint returns the plan-cache key of opts: an opaque string that
// is equal exactly when two Options compile to the same plan — the same
// format machine (content-hashed, so dialects compiled per request
// still hit), schema, tagging mode, device shape, pushdown, and every
// parse knob. All variable-length components are length-prefixed, so
// near-identical configurations (a value shifted between two
// DefaultValues entries, an Eq predicate versus a Prefix predicate on
// the same bytes) never collide. The key is deterministic across
// processes except for its format component, a 64-bit content hash.
func Fingerprint(opts Options) string {
	var b []byte
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	i64 := func(v int64) { u64(uint64(v)) }
	str := func(s string) {
		u64(uint64(len(s)))
		b = append(b, s...)
	}
	boolByte := func(v bool) {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	ints := func(vs []int) {
		u64(uint64(len(vs)))
		for _, v := range vs {
			i64(int64(v))
		}
	}

	format := opts.Format
	if format == nil {
		format = DefaultFormat()
	}
	u64(format.m.Fingerprint())

	if opts.Schema == nil {
		u64(0)
	} else {
		u64(uint64(len(opts.Schema.Fields)) + 1)
		for _, f := range opts.Schema.Fields {
			str(f.Name)
			u64(uint64(f.Type))
		}
	}

	boolByte(opts.HasHeader)
	u64(uint64(opts.Mode))
	i64(int64(opts.ChunkSize))
	i64(int64(opts.Workers))
	i64(int64(opts.ConvertWorkers))
	i64(int64(opts.InFlight))
	i64(int64(opts.SkipRows))
	ints(opts.SelectColumns)
	u64(uint64(len(opts.SkipRecords)))
	for _, v := range opts.SkipRecords {
		i64(v)
	}
	ints(opts.Scan.Select)
	u64(uint64(len(opts.Scan.Where)))
	for _, p := range opts.Scan.Where {
		i64(int64(p.p.Column))
		u64(uint64(p.p.Op))
		u64(uint64(len(p.p.Value)))
		b = append(b, p.p.Value...)
		i64(p.p.IntLo)
		i64(p.p.IntHi)
		u64(math.Float64bits(p.p.FloatLo))
		u64(math.Float64bits(p.p.FloatHi))
	}
	i64(int64(opts.ExpectedColumns))
	boolByte(opts.RejectInconsistent)
	boolByte(opts.RejectMalformed)
	u64(uint64(len(opts.DefaultValues)))
	cols := make([]int, 0, len(opts.DefaultValues))
	for c := range opts.DefaultValues {
		cols = append(cols, c)
	}
	sort.Ints(cols)
	for _, c := range cols {
		i64(int64(c))
		str(opts.DefaultValues[c])
	}
	boolByte(opts.Validate)
	u64(uint64(opts.Encoding))
	boolByte(opts.DetectEncoding)
	boolByte(opts.reference.splitTables)
	boolByte(opts.reference.noSkipAhead)
	boolByte(opts.reference.noSWARConvert)
	boolByte(opts.reference.noPushdown)
	boolByte(opts.reference.multiDFA)
	boolByte(opts.reference.perSymbolTags)
	return string(b)
}

// CacheStats is an EngineCache's counter snapshot.
type CacheStats struct {
	// Hits and Misses count Get calls served from the cache versus
	// compiled fresh; Evictions counts engines dropped by the LRU bound.
	Hits, Misses, Evictions int64
	// Engines is the current entry count.
	Engines int
}

// EngineCache is a bounded LRU of compiled Engines keyed by
// configuration fingerprint — the plan cache of the ingestion daemon,
// exported so library callers serving many configurations get the same
// amortisation. Get returns the cached Engine for equivalent Options
// (see Fingerprint) or compiles and caches a new one; when the bound is
// exceeded, the least-recently-used engine is evicted and Closed, so
// its recycled device arenas drain as soon as its in-flight runs
// finish. An EngineCache is safe for concurrent use; compilation of a
// missing entry happens under the cache lock, so concurrent first
// requests for one configuration compile it exactly once.
type EngineCache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used; values are *cacheEntry
	entries map[string]*list.Element
	onEvict func(key string, e *Engine)

	hits, misses, evictions atomic.Int64
}

type cacheEntry struct {
	key    string
	engine *Engine
}

// NewEngineCache returns an empty cache bounded to maxEngines entries
// (DefaultCacheEngines when non-positive).
func NewEngineCache(maxEngines int) *EngineCache {
	if maxEngines <= 0 {
		maxEngines = DefaultCacheEngines
	}
	return &EngineCache{
		max:     maxEngines,
		ll:      list.New(),
		entries: make(map[string]*list.Element),
	}
}

// OnEvict registers a callback invoked (outside the cache lock, after
// the evicted engine's Close) for every eviction — the hook the serving
// layer uses to drop tenant-local engines sharing the evicted plan.
func (c *EngineCache) OnEvict(f func(key string, e *Engine)) {
	c.mu.Lock()
	c.onEvict = f
	c.mu.Unlock()
}

// Get returns the engine compiled for opts, from cache when an
// equivalent configuration was compiled before.
func (c *EngineCache) Get(opts Options) (*Engine, error) {
	e, _, err := c.get(opts)
	return e, err
}

// GetKeyed is Get that also reports the entry's fingerprint key and
// whether the call was a cache hit — the shape the serving layer needs
// to key tenant state and count hits per request.
func (c *EngineCache) GetKeyed(opts Options) (e *Engine, key string, hit bool, err error) {
	key = Fingerprint(opts)
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		e = el.Value.(*cacheEntry).engine
		c.mu.Unlock()
		c.hits.Add(1)
		return e, key, true, nil
	}
	// Compile under the lock: a plan cache exists to compile each
	// configuration once, including when its first N requests arrive
	// together.
	e, err = NewEngine(opts)
	if err != nil {
		c.mu.Unlock()
		return nil, key, false, err
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, engine: e})
	var evicted []*cacheEntry
	for c.ll.Len() > c.max {
		back := c.ll.Back()
		ent := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.entries, ent.key)
		evicted = append(evicted, ent)
	}
	cb := c.onEvict
	c.mu.Unlock()
	c.misses.Add(1)
	for _, ent := range evicted {
		c.evictions.Add(1)
		ent.engine.Close()
		if cb != nil {
			cb(ent.key, ent.engine)
		}
	}
	return e, key, false, nil
}

func (c *EngineCache) get(opts Options) (*Engine, bool, error) {
	e, _, hit, err := c.GetKeyed(opts)
	return e, hit, err
}

// Contains reports whether an engine for opts is currently cached,
// without touching recency or counters.
func (c *EngineCache) Contains(opts Options) bool {
	key := Fingerprint(opts)
	c.mu.Lock()
	_, ok := c.entries[key]
	c.mu.Unlock()
	return ok
}

// Len returns the current entry count.
func (c *EngineCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the cache counters.
func (c *EngineCache) Stats() CacheStats {
	c.mu.Lock()
	n := c.ll.Len()
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Engines:   n,
	}
}

// Purge evicts every entry (Closing each engine and firing OnEvict),
// leaving the counters intact.
func (c *EngineCache) Purge() {
	c.mu.Lock()
	var evicted []*cacheEntry
	for el := c.ll.Front(); el != nil; el = el.Next() {
		evicted = append(evicted, el.Value.(*cacheEntry))
	}
	c.ll.Init()
	c.entries = make(map[string]*list.Element)
	cb := c.onEvict
	c.mu.Unlock()
	for _, ent := range evicted {
		c.evictions.Add(1)
		ent.engine.Close()
		if cb != nil {
			cb(ent.key, ent.engine)
		}
	}
}

// ReservedBytes sums the device memory held idle by every cached
// engine's arena pool — the cache's contribution to the process's
// resident device footprint.
func (c *EngineCache) ReservedBytes() int64 {
	c.mu.Lock()
	engines := make([]*Engine, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		engines = append(engines, el.Value.(*cacheEntry).engine)
	}
	c.mu.Unlock()
	var total int64
	for _, e := range engines {
		total += e.reservedBytes()
	}
	return total
}
