package trace

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"vcfr/internal/cpu"
)

// Key identifies one cacheable execution. ImageHash and LayoutSeed pin the
// executed image and the ILR layout; Mode and MaxInsts pin the functional
// stream (the stream differs per architecture mode — VCFR's hooks change
// pushed return addresses — and ends at the capture cap); Aux folds in
// everything else that shapes the functional execution (rewriter options,
// program input), so colliding layouts with, say, different return-address
// randomization modes never share a trace.
type Key struct {
	ImageHash  uint64
	LayoutSeed int64
	Mode       cpu.Mode
	MaxInsts   uint64
	Aux        uint64
}

// Cache is a bounded, concurrency-safe LRU of captured traces, keyed by
// (image hash, layout seed) plus the stream-shaping fields above. Capacity
// is accounted in bytes (SizeBytes per trace); inserting past the bound
// evicts least-recently-used entries. A single trace larger than the whole
// bound is not admitted.
type Cache struct {
	mu      sync.Mutex
	cap     int64
	size    int64
	order   *list.List // front = most recently used; values are *centry
	entries map[Key]*list.Element
	flights map[Key]*flight // in-progress captures, for Do's singleflight
	remote  Remote          // optional second-level store; see SetRemote

	hits, misses uint64
}

// Remote is an optional second level behind the in-memory cache: a shared
// content-addressed artifact store (disk-backed or a peer vcfrd over HTTP)
// consulted on a local miss and populated after every local capture, so a
// fleet of workers records each (image, layout, mode, cap) execution once.
// Fetch returns the encoded trace bytes for k (as Trace.Bytes produced
// them) and whether the store had them; Store uploads freshly captured
// bytes. Both are called outside the cache mutex, may block on I/O, and
// must be safe for concurrent use. Errors are modeled as "not found" /
// "dropped": the store is an accelerator, never a correctness dependency.
type Remote interface {
	Fetch(k Key) (data []byte, ok bool)
	Store(k Key, data []byte)
}

// SetRemote attaches (or, with nil, detaches) the second-level store.
func (c *Cache) SetRemote(r Remote) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.remote = r
	c.mu.Unlock()
}

// flight is one in-progress capture that concurrent Do callers for the same
// key wait on instead of capturing again.
type flight struct {
	done chan struct{}
	t    *Trace
	err  error
}

type centry struct {
	key Key
	t   *Trace
}

// NewCache returns a cache bounded to maxBytes of trace data. maxBytes <= 0
// returns a cache that admits nothing (every Get misses), which callers can
// use as an "off" value without nil checks.
func NewCache(maxBytes int64) *Cache {
	return &Cache{cap: maxBytes, order: list.New(), entries: make(map[Key]*list.Element)}
}

// Get returns the cached trace for k, marking it most recently used.
func (c *Cache) Get(k Key) (*Trace, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*centry).t, true
}

// Put inserts t under k, evicting least-recently-used traces as needed to
// stay within the byte bound.
func (c *Cache) Put(k Key, t *Trace) {
	if c == nil || t == nil {
		return
	}
	sz := t.SizeBytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if sz > c.cap {
		return
	}
	if el, ok := c.entries[k]; ok {
		c.size += sz - el.Value.(*centry).t.SizeBytes()
		el.Value.(*centry).t = t
		c.order.MoveToFront(el)
	} else {
		c.entries[k] = c.order.PushFront(&centry{key: k, t: t})
		c.size += sz
	}
	for c.size > c.cap {
		el := c.order.Back()
		if el == nil {
			break
		}
		e := el.Value.(*centry)
		c.order.Remove(el)
		delete(c.entries, e.key)
		c.size -= e.t.SizeBytes()
	}
}

// Do returns the trace for k, coalescing concurrent captures of the same
// key: a cached trace is returned immediately; otherwise the first caller
// (the leader, reported by the second return value) runs capture and the
// sealed trace is inserted and handed to every waiter. Followers that
// arrive while the leader is capturing block until it finishes and receive
// the same trace — or the leader's error, in which case they are free to
// fall back to executing themselves. A follower stops waiting when its own
// ctx expires (returning ctx.Err()), so one slow leader cannot hold a
// coalesced request past that request's deadline.
//
// This closes the double-capture race: without it, two concurrent cells
// with the same (image hash, seed, mode, cap) key would both miss Get and
// both pay a full execute-driven capture.
//
// If capture panics, the flight is unregistered and its waiters released
// with an error before the panic is re-raised to the leader, so a panic
// cannot poison the key: followers fall back, and the next Do for k runs a
// fresh capture.
//
// With a Remote attached (SetRemote), a local miss consults the shared
// store before capturing — a remote hit is inserted locally and returned
// with leader=false, and a fresh local capture is uploaded for peers.
func (c *Cache) Do(ctx context.Context, k Key, capture func() (*Trace, error)) (t *Trace, leader bool, err error) {
	if c == nil {
		t, err = capture()
		return t, true, err
	}
	c.mu.Lock()
	if el, ok := c.entries[k]; ok {
		c.hits++
		c.order.MoveToFront(el)
		t = el.Value.(*centry).t
		c.mu.Unlock()
		return t, false, nil
	}
	if f, ok := c.flights[k]; ok {
		// A capture for k is already in flight: joining it serves this
		// request without a second capture, which is a hit in every sense
		// that matters for the counters.
		c.hits++
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.t, false, f.err
		case <-ctx.Done():
			// The leader keeps capturing (its own ctx governs it); this
			// follower just refuses to outwait its deadline.
			return nil, false, ctx.Err()
		}
	}
	c.misses++
	f := &flight{done: make(chan struct{})}
	if c.flights == nil {
		c.flights = make(map[Key]*flight)
	}
	c.flights[k] = f
	rem := c.remote
	c.mu.Unlock()

	fetched := false
	defer func() {
		if r := recover(); r != nil {
			f.t, f.err = nil, fmt.Errorf("trace capture panicked: %v", r)
			c.unregister(k)
			close(f.done)
			panic(r)
		}
		if f.err == nil {
			c.Put(k, f.t)
			if rem != nil && !fetched && f.t != nil {
				rem.Store(k, f.t.Bytes())
			}
		}
		c.unregister(k)
		close(f.done)
	}()
	// Before paying a capture, try the second-level store: a peer may have
	// recorded this exact execution already. A fetched trace is reported
	// with leader=false, like any cache hit (only a genuine local capture
	// produces the leader's live cpu.Result). A store that returns garbage
	// is simply ignored; the capture below is the fallback for every remote
	// failure mode.
	if rem != nil {
		if data, ok := rem.Fetch(k); ok {
			if t, derr := Decode(data); derr == nil {
				fetched = true
				f.t = t
				return f.t, false, nil
			}
		}
	}
	f.t, f.err = capture()
	return f.t, true, f.err
}

// unregister removes k's in-flight marker.
func (c *Cache) unregister(k Key) {
	c.mu.Lock()
	delete(c.flights, k)
	c.mu.Unlock()
}

// Stats reports cache effectiveness counters and current occupancy.
func (c *Cache) Stats() (hits, misses uint64, bytes int64, entries int) {
	if c == nil {
		return 0, 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.size, len(c.entries)
}
