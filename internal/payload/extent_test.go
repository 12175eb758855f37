package payload

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// refSplice applies the same splice to a plain byte slice — the reference
// model the tree is checked against.
func refSplice(ref []byte, off, del int64, b Buffer) []byte {
	out := make([]byte, 0, int64(len(ref))-del+b.Size())
	out = append(out, ref[:off]...)
	out = append(out, b.Materialize()...)
	out = append(out, ref[off+del:]...)
	return out
}

// spliceOpSize is the encoded length of one splice step.
const spliceOpSize = 26

// maxSpliceOps bounds the steps decoded from one input, so fuzzed inputs
// stay fast to check.
const maxSpliceOps = 512

// spliceBacking is the shared array that kind-3 steps slice real bytes from:
// neighbouring slices of it are contiguous and must coalesce in the tree.
var spliceBacking = func() []byte {
	b := make([]byte, 4096)
	for i := range b {
		b[i] = byte(i*131 + i>>8)
	}
	return b
}()

// spliceOp is one step of a splice sequence: where to splice, what to
// insert, and which slice to read back afterwards. Positions and lengths are
// reduced into their valid ranges when applied, so every byte string decodes
// to a valid sequence.
type spliceOp struct {
	kind     uint8  // 0 synthetic run, 1 real bytes, 2 synthetic+real mix, 3 slice of spliceBacking
	seed     uint8  // synthetic seed (kind 0)
	n1, n2   uint16 // part lengths
	off, del uint32 // splice range
	soff     uint32 // synthetic stream offset (kinds 0, 2) or backing offset (kind 3)
	so, sn   uint32 // read-back slice
}

func (op spliceOp) encode(b []byte) []byte {
	b = append(b, op.kind, op.seed)
	b = binary.LittleEndian.AppendUint16(b, op.n1)
	b = binary.LittleEndian.AppendUint16(b, op.n2)
	for _, v := range []uint32{op.off, op.del, op.soff, op.so, op.sn} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

func decodeSpliceOp(b []byte) spliceOp {
	u32 := func(i int) uint32 { return binary.LittleEndian.Uint32(b[i:]) }
	return spliceOp{
		kind: b[0], seed: b[1],
		n1: binary.LittleEndian.Uint16(b[2:]), n2: binary.LittleEndian.Uint16(b[4:]),
		off: u32(6), del: u32(10), soff: u32(14), so: u32(18), sn: u32(22),
	}
}

// buffer builds the content step inserts. Real-byte parts get a fresh
// allocation per step, so they never coalesce with each other.
func (op spliceOp) buffer(step int) Buffer {
	n1, n2 := int64(op.n1%1024), int64(op.n2%1024)
	var b Buffer
	switch op.kind % 4 {
	case 0:
		b = Synth(uint64(op.seed), int64(op.soff), n1)
	case 1:
		b = FromBytes(Synth(uint64(step)+100, 0, n1).Materialize())
	case 2:
		b.AppendBuffer(Synth(3, int64(op.soff), n1))
		b.AppendBuffer(FromBytes(Synth(uint64(step)+500, 0, n2).Materialize()))
	case 3:
		s := int64(op.soff) % int64(len(spliceBacking)+1)
		n := n1 % (int64(len(spliceBacking)) - s + 1)
		b = FromBytes(spliceBacking[s : s+n])
	}
	return b
}

// referenceSpliceOps encodes a randomized splice sequence (inserts, deletes,
// overwrites, appends; synthetic and real parts), already reduced into the
// valid ranges so it decodes back unchanged.
func referenceSpliceOps() []byte {
	rng := rand.New(rand.NewSource(7))
	var data []byte
	var size int64
	for step := 0; step < 400; step++ {
		var op spliceOp
		if size > 0 {
			op.off = uint32(rng.Int63n(size + 1))
		}
		if rest := size - int64(op.off); rest > 0 && rng.Intn(2) == 0 {
			op.del = uint32(rng.Int63n(rest + 1))
		}
		op.kind = uint8(rng.Intn(3))
		switch op.kind {
		case 0: // synthetic run
			op.seed = uint8(rng.Intn(5)) + 1
			op.soff = uint32(rng.Int63n(1 << 20))
			op.n1 = uint16(rng.Int63n(300))
		case 1: // real bytes
			op.n1 = uint16(rng.Int63n(200))
		case 2: // multi-part mix
			op.soff = uint32(rng.Int63n(1000))
			op.n1 = uint16(rng.Int63n(100))
			op.n2 = uint16(rng.Int63n(100))
		}
		size += op.buffer(step).Size() - int64(op.del)
		if size > 0 {
			op.so = uint32(rng.Int63n(size))
			op.sn = uint32(rng.Int63n(size - int64(op.so) + 1))
		}
		data = op.encode(data)
	}
	return data
}

// checkSpliceSequence drives a tree and a naive []byte model through the
// decoded splice sequence. After every step content, checksum, size and a
// slice must agree, no two adjacent extents may be coalescible, and the
// live-extent count must track the tree; Release must return it to where
// it started.
func checkSpliceSequence(t *testing.T, data []byte) {
	base := DataPlaneSnapshot().LiveExtents
	var tr Tree
	var ref []byte
	for step := 0; len(data) >= spliceOpSize && step < maxSpliceOps; step++ {
		op := decodeSpliceOp(data)
		data = data[spliceOpSize:]
		size := int64(len(ref))
		off := int64(op.off) % (size + 1)
		del := int64(op.del) % (size - off + 1)
		b := op.buffer(step)
		tr.Splice(off, del, b)
		ref = refSplice(ref, off, del, b)

		if tr.Size() != int64(len(ref)) {
			t.Fatalf("step %d: size %d, want %d", step, tr.Size(), len(ref))
		}
		content := tr.Buffer()
		if !bytes.Equal(content.Materialize(), ref) {
			t.Fatalf("step %d: content diverged", step)
		}
		if tr.Checksum() != FromBytes(ref).Checksum() {
			t.Fatalf("step %d: checksum diverged", step)
		}
		if len(content.parts) != tr.Extents() {
			t.Fatalf("step %d: %d parts for %d extents", step, len(content.parts), tr.Extents())
		}
		for i := 1; i < len(content.parts); i++ {
			if _, ok := coalesce(content.parts[i-1], content.parts[i]); ok {
				t.Fatalf("step %d: extents %d and %d are adjacent and coalescible", step, i-1, i)
			}
		}
		if live := DataPlaneSnapshot().LiveExtents - base; live != int64(tr.Extents()) {
			t.Fatalf("step %d: %d live extents counted for a tree of %d", step, live, tr.Extents())
		}
		if n := int64(len(ref)); n > 0 {
			so := int64(op.so) % n
			sn := int64(op.sn) % (n - so + 1)
			if got := tr.Slice(so, sn).Materialize(); !bytes.Equal(got, ref[so:so+sn]) {
				t.Fatalf("step %d: slice(%d,%d) diverged", step, so, sn)
			}
		}
	}
	tr.Release()
	if live := DataPlaneSnapshot().LiveExtents; live != base {
		t.Fatalf("live extents %d after release, want %d", live, base)
	}
}

// TestTreeSpliceMatchesReference checks the tree against the []byte model
// over a randomized splice sequence.
func TestTreeSpliceMatchesReference(t *testing.T) {
	checkSpliceSequence(t, referenceSpliceOps())
}

// FuzzTreeSplice checks the tree against the []byte model over arbitrary
// splice sequences. The corpus is seeded from TestTreeSpliceMatchesReference
// plus runs of adjacent real-byte slices, which must coalesce.
func FuzzTreeSplice(f *testing.F) {
	ops := referenceSpliceOps()
	for _, n := range []int{8, 64, 400} {
		f.Add(ops[:n*spliceOpSize])
	}
	var adjacent []byte // alternately prepend and append neighbouring slices: both seams
	for i := uint32(0); i < 4; i++ {
		adjacent = spliceOp{kind: 3, n1: 100, soff: 300 - i*100, sn: 50}.encode(adjacent)
		adjacent = spliceOp{kind: 3, n1: 100, off: (2*i + 1) * 100, soff: 400 + i*100, sn: 50}.encode(adjacent)
	}
	f.Add(adjacent)
	f.Fuzz(checkSpliceSequence)
}

// TestTreeCoalescesSyntheticStream checks that appending chunks that continue
// one seed's stream collapses to a single extent, however many chunks arrive.
func TestTreeCoalescesSyntheticStream(t *testing.T) {
	var tr Tree
	const chunk = 4096
	for i := int64(0); i < 200; i++ {
		tr.Splice(tr.Size(), 0, Synth(9, i*chunk, chunk))
	}
	if got := tr.Extents(); got != 1 {
		t.Fatalf("sequential synthetic stream left %d extents, want 1", got)
	}
	if tr.Size() != 200*chunk {
		t.Fatalf("size = %d", tr.Size())
	}
}

// TestTreeCoalescesAdjacentBytes checks that two byte extents whose backing
// slices are contiguous in one allocation merge back into one extent.
func TestTreeCoalescesAdjacentBytes(t *testing.T) {
	backing := Synth(5, 0, 8192).Materialize()
	var tr Tree
	tr.Splice(0, 0, FromBytes(backing[:3000]))
	tr.Splice(3000, 0, FromBytes(backing[3000:]))
	if got := tr.Extents(); got != 1 {
		t.Fatalf("contiguous byte slices left %d extents, want 1", got)
	}
	// Unrelated allocations must NOT merge.
	var tr2 Tree
	tr2.Splice(0, 0, FromBytes(append([]byte(nil), backing[:100]...)))
	tr2.Splice(100, 0, FromBytes(append([]byte(nil), backing[100:200]...)))
	if got := tr2.Extents(); got != 2 {
		t.Fatalf("separate allocations merged to %d extents, want 2", got)
	}
}

// TestTreeOverwriteCollapses checks the churn invariant directly: a
// full-range overwrite restores the single-extent state no matter how
// fragmented the tree was.
func TestTreeOverwriteCollapses(t *testing.T) {
	var tr Tree
	tr.Splice(0, 0, Synth(1, 0, 1<<16))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		off := rng.Int63n(1<<16 - 64)
		tr.Splice(off, 64, Synth(uint64(i)+2, 0, 64))
	}
	if tr.Extents() < 3 {
		t.Fatal("churn did not fragment the tree; test is vacuous")
	}
	tr.Splice(0, tr.Size(), Synth(77, 0, 1<<16))
	if got := tr.Extents(); got != 1 {
		t.Fatalf("full overwrite left %d extents, want 1", got)
	}
}

// TestTreeBoundedExtentsUnderChurn overwrites chunk-aligned ranges forever,
// the aggregation-pool pattern: the extent count must stay bounded by the
// chunk layout (amortized O(1) per write), not grow with write count.
func TestTreeBoundedExtentsUnderChurn(t *testing.T) {
	const size, chunk = 1 << 20, 1 << 14 // 64 chunks
	var tr Tree
	tr.Splice(0, 0, Synth(1, 0, size))
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 50; round++ {
		for c := int64(0); c < size/chunk; c++ {
			seed := uint64(rng.Intn(8)) + 2
			tr.Splice(c*chunk, chunk, Synth(seed, c*chunk, chunk))
		}
		if got, limit := tr.Extents(), int(size/chunk)+2; got > limit {
			t.Fatalf("round %d: %d extents > bound %d", round, got, limit)
		}
	}
}

// TestBufferSliceIndexEquivalence checks that an indexed buffer (built by
// Append past sliceIndexMin parts) slices identically to the linear scan.
func TestBufferSliceIndexEquivalence(t *testing.T) {
	var b Buffer
	for i := 0; i < sliceIndexMin*3; i++ {
		b.Append(Part{Seed: uint64(i) + 1, Off: int64(i) * 97, N: int64(i%7) + 1})
	}
	if len(b.cum) != len(b.parts) {
		t.Fatalf("index not maintained: %d cum for %d parts", len(b.cum), len(b.parts))
	}
	whole := b.Materialize()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		off := rng.Int63n(b.Size())
		n := rng.Int63n(b.Size() - off + 1)
		if got := b.Slice(off, n).Materialize(); !bytes.Equal(got, whole[off:off+n]) {
			t.Fatalf("indexed slice(%d,%d) diverged", off, n)
		}
	}
}

// TestMaterializeCap checks that oversized materialization panics and that
// the cap is adjustable.
func TestMaterializeCap(t *testing.T) {
	prev := SetMaterializeCap(1 << 10)
	defer SetMaterializeCap(prev)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic materializing above the cap")
			}
		}()
		Synth(1, 0, 2<<10).Materialize()
	}()
	// At or below the cap: fine.
	if got := Synth(1, 0, 1<<10).Materialize(); len(got) != 1<<10 {
		t.Fatalf("len = %d", len(got))
	}
}

// TestDataPlaneCounters sanity-checks the process-wide telemetry: splices
// and merges move, and materialization is counted.
func TestDataPlaneCounters(t *testing.T) {
	before := DataPlaneSnapshot()
	var tr Tree
	tr.Splice(0, 0, Synth(1, 0, 4096))
	tr.Splice(1000, 100, FromBytes(make([]byte, 100))) // cuts the extent
	_ = Synth(2, 0, 512).Materialize()
	after := DataPlaneSnapshot()
	if after.ExtentSplits == before.ExtentSplits {
		t.Error("extent split not counted")
	}
	if after.MaterializedBytes-before.MaterializedBytes < 512 {
		t.Error("materialized bytes not counted")
	}
	if after.LiveExtents <= 0 {
		t.Error("live extent gauge not positive while tree is alive")
	}
}

func BenchmarkTreeSpliceChurn(b *testing.B) {
	const size, chunk = 64 << 20, 1 << 16
	var tr Tree
	tr.Splice(0, 0, Synth(1, 0, size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%(size/chunk)) * chunk
		tr.Splice(off, chunk, Synth(uint64(i)+2, off, chunk))
	}
}

func BenchmarkTreeSlice(b *testing.B) {
	const size = 64 << 20
	var tr Tree
	// Fragment the tree: alternate seeds so nothing coalesces.
	for i := int64(0); i < 1024; i++ {
		tr.Splice(tr.Size(), 0, Synth(uint64(i%2)+1, i*(size/1024), size/1024))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.Slice(int64(i%1000)*(size/1024), 1<<16)
	}
}
