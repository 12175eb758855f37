// Package mem provides mutable simulated memory regions backed by
// payload extent trees, used for RDMA-registered buffers and process-image
// segments.
package mem

import (
	"fmt"
	"sync/atomic"

	"ibmig/internal/payload"
)

// regionWrites counts Region.Write calls process-wide — part of the
// data-plane telemetry surfaced by internal/metrics. Host-side only; never
// influences simulated behaviour.
var regionWrites atomic.Uint64

// RegionWrites returns the process-wide Region.Write count.
func RegionWrites() uint64 { return regionWrites.Load() }

// Region is a fixed-size, byte-addressable simulated memory area. Its
// content is a coalescing extent tree over payload parts, so it can mix real
// and synthetic bytes, a write splices descriptors in O(log extents) instead
// of rebuilding the content, and the extent count stays bounded under
// sustained overwrite churn (see payload.Tree). The zero value is not
// usable; call NewRegion.
//
// A synthetically-seeded region is lazy: until its first Write no tree node
// exists at all — reads and checksums are answered directly from the seed.
// Regions that are registered but never written (the rendezvous buffers of a
// full mpi mesh, by far the most numerous at sweep scale) therefore hold
// zero live extents.
type Region struct {
	size int64
	t    payload.Tree
	// writes counts Write calls, a cheap generation number for cache logic.
	writes int64
	// seed is the synthetic fill; valid only while !filled.
	seed uint64
	// filled marks that the tree holds the content. False means the content
	// is still exactly Synth(seed, 0, size) and the tree is empty.
	filled bool
}

// NewRegion returns a region of the given size. Initial content is a
// deterministic synthetic fill derived from seed (simulated uninitialized
// memory: stable, but not meaningful) — a single extent, instantiated only
// when the region is first written.
func NewRegion(size int64, seed uint64) *Region {
	if size < 0 {
		panic("mem: negative region size")
	}
	return &Region{size: size, seed: seed}
}

// NewRegionWith returns a region initialized with exactly the given content.
func NewRegionWith(b payload.Buffer) *Region {
	r := &Region{size: b.Size(), filled: true}
	r.t.Splice(0, 0, b)
	return r
}

// fill instantiates the synthetic base content ahead of the first write.
func (r *Region) fill() {
	if !r.filled {
		r.t.Splice(0, 0, payload.Synth(r.seed, 0, r.size))
		r.filled = true
	}
}

// Size returns the region size in bytes.
func (r *Region) Size() int64 { return r.size }

// Generation returns a counter incremented on every Write.
func (r *Region) Generation() int64 { return r.writes }

// Extents returns the number of extent descriptors backing the region. A
// never-written region reports its logical single synthetic extent even
// though no node is allocated for it.
func (r *Region) Extents() int {
	if !r.filled {
		if r.size == 0 {
			return 0
		}
		return 1
	}
	return r.t.Extents()
}

// Write replaces the byte range [off, off+b.Size()) with b's content by
// splicing extent descriptors — no content is copied or materialized.
func (r *Region) Write(off int64, b payload.Buffer) {
	n := b.Size()
	if off < 0 || off+n > r.size {
		panic(fmt.Sprintf("mem: write [%d,%d) beyond region size %d", off, off+n, r.size))
	}
	if n == 0 {
		return
	}
	r.fill()
	r.t.Splice(off, n, b)
	r.writes++
	regionWrites.Add(1)
}

// Read returns the content of [off, off+n) without copying.
func (r *Region) Read(off, n int64) payload.Buffer {
	if off < 0 || n < 0 || off+n > r.size {
		panic(fmt.Sprintf("mem: read [%d,%d) beyond region size %d", off, off+n, r.size))
	}
	if !r.filled {
		return payload.Synth(r.seed, off, n)
	}
	return r.t.Slice(off, n)
}

// Content returns the whole region content.
func (r *Region) Content() payload.Buffer {
	if !r.filled {
		return payload.Synth(r.seed, 0, r.size)
	}
	return r.t.Buffer()
}

// Checksum returns the FNV-1a checksum of the entire region.
func (r *Region) Checksum() uint64 {
	if !r.filled {
		return payload.Synth(r.seed, 0, r.size).Checksum()
	}
	return r.t.Checksum()
}

// Release drops the region's extent tree, taking its extents off the live
// count, and resets it to its initial synthetic state. Call when the
// region's lifecycle ends — an RDMA buffer deregistered at teardown, a
// process image segment discarded after migration. The region stays usable
// (content reverts to the seed fill); Buffers sliced from it earlier keep
// their content.
func (r *Region) Release() {
	if r.filled {
		r.t.Release()
		r.filled = false
	}
}
