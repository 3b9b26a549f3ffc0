package tensor

import "fmt"

// Workspace is a shape-keyed buffer pool for matrices, built so the training
// hot path stops allocating: every panel, partial and activation a step
// needs is drawn from per-shape free lists and recycled instead of being
// handed to the garbage collector.
//
// A workspace is intentionally NOT safe for concurrent use. Each simulated
// worker owns exactly one (dist.Worker.Workspace), so the steady path takes
// no locks. Buffers never migrate between workspaces: collectives that hand
// matrices across workers either copy into the receiver's own buffers
// (the *Into variants) or pass read-only references whose last read
// completes before the collective returns.
//
// # Ownership and lifetime rules
//
// Get/GetUninit check a buffer out; it stays checked out until exactly one of
//
//   - Put(m): the holder returns it early. Only the current holder may Put,
//     and only once — a double Put would hand the same storage to two users.
//     Use Put for transient scratch whose last read is provably behind us:
//     SUMMA receive panels, reduce partials, per-head attention scratch,
//     broadcast bias buffers, and gradient intermediates (a layer's
//     Backward never retains its input, so the owner of a gradient buffer
//     may Put it once every Backward it was passed to has returned).
//   - ReleaseAll(): the step boundary. Everything still checked out returns
//     to the free lists at once. Forward-pass values ride to the step
//     boundary: a layer's Forward may retain its input and its output for
//     the backward pass (saved activations, attention probabilities,
//     layer-norm statistics), so callers must never Put a buffer that
//     crossed a Forward API — unless the callee documents that it does not
//     retain it, as the tesseract layer norms do for their inputs.
//
// ReleaseAll may only run at a step boundary — after the optimiser step, or
// after an evaluation forward whose outputs have been consumed — never
// between a forward and its backward.
//
// # Collective boundaries and borrows
//
// The blocking dist collectives complete all cross-worker reads before any
// member returns, so a buffer used as a blocking collective's source or
// destination is again exclusively owned the moment the call returns: it may
// be reused, Put, or sent again immediately. SUMMA's reused receive panels
// rely on this.
//
// The nonblocking collectives (dist's IBroadcastInto family) borrow their
// payload and destination between issue and Wait: the runtime marks the
// buffers via Borrow at issue and releases them when Wait returns. A
// borrowed buffer must not be Put and must not reach ReleaseAll — both
// panic, because an in-flight collective may still read or write the
// storage. Drain every handle before the step boundary.
//
// # Phantoms
//
// The pool is phantom-aware: requesting a phantom shape yields a pooled
// shape-only matrix (phantom flag is part of the free-list key, so a phantom
// can never satisfy a real request or vice versa). Zeroing is skipped and
// Put/ReleaseAll recycle the headers, keeping paper-scale phantom runs
// allocation-free too.
//
// # Implementation note
//
// Checkout state lives intrusively on the Matrix itself (owning pool, slot
// in the checked-out list, home free list, borrow count), so Get, Put and
// ReleaseAll touch no hash map except the one shape lookup a Get performs —
// the checked-out set that used to be a map is a plain slice with O(1)
// swap-removal.
type Workspace struct {
	free map[wsKey]*wsBucket
	// cache is a direct-mapped front for the free map: a training step asks
	// for the same handful of shapes thousands of times, and the map lookup
	// (hash + probe) was ~7% of a step. A shape's bucket is remembered in
	// its hash slot on first lookup; collisions just fall back to the map.
	cache [wsCacheSlots]wsCacheEntry
	out   []*Matrix

	pooling  bool
	borrowed int
	stats    WorkspaceStats
}

const wsCacheSlots = 64

type wsCacheEntry struct {
	key wsKey
	b   *wsBucket
}

// cacheSlot hashes a shape key into the direct-mapped cache. The
// multipliers spread the handful of near-power-of-two shapes a training
// step cycles through across the slots, so two hot shapes rarely ping-pong
// in one slot (each eviction costs a map probe).
func cacheSlot(k wsKey) int {
	h := k.rows*0x9E3779B1 + k.cols*0x85EBCA77
	if k.phantom {
		h += 1543
	}
	return (h ^ h>>7) & (wsCacheSlots - 1)
}

type wsKey struct {
	rows, cols int
	phantom    bool
}

// wsBucket is one per-shape free list. Matrices remember their bucket, so
// Put and ReleaseAll recycle without a map lookup.
type wsBucket struct {
	items []*Matrix
}

// WorkspaceStats is a point-in-time snapshot of pool behaviour.
type WorkspaceStats struct {
	// Allocs counts pool misses: Gets that had to allocate a new matrix.
	// Flat Allocs across steps means the steady path never allocates.
	Allocs int
	// Gets counts all checkouts; Gets − Allocs hit a free list.
	Gets int
	// Live is the number of currently checked-out buffers.
	Live int
	// HighWater is the maximum Live ever observed — the arena footprint of
	// one step. Flat HighWater across steps means no leak.
	HighWater int
	// LiveBytes is the storage behind the currently checked-out buffers
	// (8 bytes per element; phantoms carry no storage and count zero).
	LiveBytes int64
	// HighWaterBytes is the maximum LiveBytes ever observed — the peak
	// activation footprint memory studies compare across families.
	HighWaterBytes int64
}

// NewWorkspace returns an empty pool with pooling enabled.
func NewWorkspace() *Workspace {
	return &Workspace{
		free:    make(map[wsKey]*wsBucket),
		pooling: true,
	}
}

// SetPooling toggles recycling. Disabled, Get/GetUninit degenerate to plain
// allocation and Put/ReleaseAll drop their buffers — the allocating
// reference path the bitwise property tests compare against.
func (ws *Workspace) SetPooling(enabled bool) { ws.pooling = enabled }

// Stats returns a snapshot of the pool counters.
func (ws *Workspace) Stats() WorkspaceStats { return ws.stats }

// Get checks out a zeroed rows×cols matrix.
func (ws *Workspace) Get(rows, cols int) *Matrix {
	m := ws.GetUninit(rows, cols)
	m.Zero()
	return m
}

// GetUninit checks out a rows×cols matrix with unspecified contents. Use it
// only for destinations that are fully overwritten before being read.
func (ws *Workspace) GetUninit(rows, cols int) *Matrix {
	return ws.get(wsKey{rows, cols, false})
}

// GetMatch is Get with the phantomness of the computation the buffer joins:
// phantom inputs get a pooled shape-only matrix, real inputs a zeroed one.
func (ws *Workspace) GetMatch(rows, cols int, phantom bool) *Matrix {
	if phantom {
		return ws.get(wsKey{rows, cols, true})
	}
	return ws.Get(rows, cols)
}

// GetUninitMatch is GetUninit with a phantom variant.
func (ws *Workspace) GetUninitMatch(rows, cols int, phantom bool) *Matrix {
	return ws.get(wsKey{rows, cols, phantom})
}

func (ws *Workspace) get(k wsKey) *Matrix {
	checkDims(k.rows, k.cols)
	ws.stats.Gets++
	var bucket *wsBucket
	slot := cacheSlot(k)
	if e := &ws.cache[slot]; e.b != nil && e.key == k {
		bucket = e.b
	} else {
		bucket = ws.free[k]
		if bucket == nil {
			bucket = &wsBucket{}
			ws.free[k] = bucket
		}
		ws.cache[slot] = wsCacheEntry{key: k, b: bucket}
	}
	var m *Matrix
	if n := len(bucket.items); ws.pooling && n > 0 {
		m = bucket.items[n-1]
		bucket.items[n-1] = nil
		bucket.items = bucket.items[:n-1]
	} else {
		ws.stats.Allocs++
		if k.phantom {
			m = NewPhantom(k.rows, k.cols)
		} else {
			m = New(k.rows, k.cols)
		}
		m.bucket = bucket
	}
	if ws.pooling {
		m.ws = ws
		m.wsIdx = int32(len(ws.out))
		ws.out = append(ws.out, m)
		ws.stats.Live++
		if ws.stats.Live > ws.stats.HighWater {
			ws.stats.HighWater = ws.stats.Live
		}
		ws.stats.LiveBytes += storageBytes(m)
		if ws.stats.LiveBytes > ws.stats.HighWaterBytes {
			ws.stats.HighWaterBytes = ws.stats.LiveBytes
		}
	}
	return m
}

// storageBytes is the heap storage behind one pooled buffer: 8 bytes per
// element for real matrices, zero for phantoms (shape-only headers).
func storageBytes(m *Matrix) int64 {
	if m.Phantom() {
		return 0
	}
	return 8 * int64(m.Rows) * int64(m.Cols)
}

// Put returns checked-out buffers to their free lists. It panics on a matrix
// this workspace does not consider checked out (double Put, never pooled, or
// already swept by ReleaseAll) — each of those is an aliasing bug waiting to
// hand one buffer to two holders — and on a matrix still borrowed by an
// in-flight nonblocking collective (Put before Wait). No-op when pooling is
// disabled.
func (ws *Workspace) Put(ms ...*Matrix) {
	if !ws.pooling {
		return
	}
	for _, m := range ms {
		if m == nil {
			continue
		}
		if m.ws != ws {
			panic(fmt.Sprintf("tensor: workspace Put of a %dx%d matrix that is not checked out", m.Rows, m.Cols))
		}
		if m.borrows != 0 {
			panic(fmt.Sprintf("tensor: workspace Put of a %dx%d matrix still borrowed by %d in-flight collective(s) — Wait the handle first", m.Rows, m.Cols, m.borrows))
		}
		ws.remove(m)
		m.bucket.items = append(m.bucket.items, m)
	}
}

// remove unlinks m from the checked-out list in O(1) by swapping the tail
// into its slot.
func (ws *Workspace) remove(m *Matrix) {
	last := len(ws.out) - 1
	if i := int(m.wsIdx); i != last {
		moved := ws.out[last]
		ws.out[i] = moved
		moved.wsIdx = int32(i)
	}
	ws.out[last] = nil
	ws.out = ws.out[:last]
	m.ws = nil
	ws.stats.Live--
	ws.stats.LiveBytes -= storageBytes(m)
}

// ReleaseAll returns every checked-out buffer to the free lists — the step
// boundary. It panics if any buffer is still borrowed by an in-flight
// nonblocking collective: a handle crossing a step boundary is a bug. See
// the ownership rules in the type comment for when ReleaseAll is safe.
func (ws *Workspace) ReleaseAll() {
	if !ws.pooling {
		return
	}
	if ws.borrowed != 0 {
		panic(fmt.Sprintf("tensor: workspace ReleaseAll with %d buffer(s) still borrowed by in-flight collectives — Wait every handle before the step boundary", ws.borrowed))
	}
	for i, m := range ws.out {
		m.ws = nil
		m.bucket.items = append(m.bucket.items, m)
		ws.out[i] = nil
	}
	ws.out = ws.out[:0]
	ws.stats.Live = 0
	ws.stats.LiveBytes = 0
}

// Borrow marks a checked-out buffer as lent to an in-flight nonblocking
// collective: until the matching Release, Put panics on it and ReleaseAll
// refuses to run. Matrices that are not checked out of this workspace
// (parameters, plain allocations, pooling disabled) are ignored — the
// borrow discipline protects pooled storage only. Borrows nest: a buffer
// lent as both payload and destination of one collective is borrowed twice.
func (ws *Workspace) Borrow(m *Matrix) {
	if m == nil || m.ws != ws {
		return
	}
	m.borrows++
	ws.borrowed++
}

// Release undoes one Borrow.
func (ws *Workspace) Release(m *Matrix) {
	if m == nil || m.ws != ws {
		return
	}
	if m.borrows == 0 {
		panic(fmt.Sprintf("tensor: workspace Release of a %dx%d matrix that is not borrowed", m.Rows, m.Cols))
	}
	m.borrows--
	ws.borrowed--
}
