package vfs

import (
	"fmt"

	"ibmig/internal/calib"
	"ibmig/internal/ib"
	"ibmig/internal/payload"
	"ibmig/internal/sim"
)

// PVFS is a PVFS2-like striped parallel file system: a set of data servers
// (the first also serving metadata), each with its own disk, reached over the
// InfiniBand fabric. Files are striped round-robin in fixed-size stripes
// (the paper: "PVFS 2.8.1 with InfiniBand transport ... with four separate
// nodes serve as both data servers and metadata servers. The stripe size is
// set to 1 MB").
//
// Server writes are synchronous to disk (PVFS2 Trove syncs), so checkpoint
// throughput is bound by the server disks — and degrades further when many
// client streams interleave on them, which is exactly the contention effect
// the paper blames for PVFS's slow checkpoints.
type PVFS struct {
	E       *sim.Engine
	fabric  *ib.Fabric
	servers []*PVFSServer
	stripe  int64
	files   map[string]*pvfsFile
	created int

	BytesWritten int64
	BytesRead    int64
	MetaOps      int64
}

// PVFSServer is one data server.
type PVFSServer struct {
	Node string
	Disk *Disk
}

// NewPVFS builds a parallel file system over the given server nodes, which
// must already have HCAs attached to the fabric. stripe <= 0 uses the
// calibrated default.
func NewPVFS(e *sim.Engine, fabric *ib.Fabric, serverNodes []string, stripe int64, diskCfg DiskConfig) *PVFS {
	if len(serverNodes) == 0 {
		panic("vfs: PVFS needs at least one server")
	}
	if stripe <= 0 {
		stripe = calib.PVFSStripeSize
	}
	pv := &PVFS{E: e, fabric: fabric, stripe: stripe, files: make(map[string]*pvfsFile)}
	for _, n := range serverNodes {
		if fabric.HCA(n) == nil {
			panic("vfs: PVFS server has no HCA: " + n)
		}
		pv.servers = append(pv.servers, &PVFSServer{Node: n, Disk: NewDisk(e, "pvfs."+n, diskCfg)})
	}
	return pv
}

// Servers returns the data servers.
func (pv *PVFS) Servers() []*PVFSServer { return pv.servers }

// StripeSize returns the striping unit.
func (pv *PVFS) StripeSize() int64 { return pv.stripe }

type pvfsFile struct {
	name        string
	c           content
	firstServer int // round-robin base so files spread across servers
}

// metaServer is the metadata server (first data server, as in the testbed).
func (pv *PVFS) metaServer() *PVFSServer { return pv.servers[0] }

// metaOp charges one metadata round trip from clientNode.
func (pv *PVFS) metaOp(p *sim.Proc, clientNode string) {
	pv.MetaOps++
	_ = pv.fabric.Transfer(p, clientNode, pv.metaServer().Node, 256)
	p.Sleep(calib.PVFSMetaOpCost)
	_ = pv.fabric.Transfer(p, pv.metaServer().Node, clientNode, 256)
}

// Handle is one client's open descriptor. While open it registers an I/O
// stream on every server disk (a striped file keeps all spindles busy).
type Handle struct {
	pv         *PVFS
	f          *pvfsFile
	clientNode string
	closed     bool
}

// Create creates (or truncates) a file from clientNode and returns a handle.
func (pv *PVFS) Create(p *sim.Proc, clientNode, name string) *Handle {
	pv.metaOp(p, clientNode)
	f := pv.files[name]
	if f == nil {
		f = &pvfsFile{name: name, firstServer: pv.created % len(pv.servers)}
		pv.created++
		pv.files[name] = f
	} else {
		f.c.release()
	}
	return pv.open(f, clientNode)
}

// Open opens an existing file from clientNode.
func (pv *PVFS) Open(p *sim.Proc, clientNode, name string) (*Handle, error) {
	pv.metaOp(p, clientNode)
	f := pv.files[name]
	if f == nil {
		return nil, fmt.Errorf("%w: pvfs:%s", ErrNotExist, name)
	}
	return pv.open(f, clientNode), nil
}

func (pv *PVFS) open(f *pvfsFile, clientNode string) *Handle {
	for _, s := range pv.servers {
		s.Disk.StartStream()
	}
	return &Handle{pv: pv, f: f, clientNode: clientNode}
}

// Exists reports whether the named file exists.
func (pv *PVFS) Exists(name string) bool { return pv.files[name] != nil }

// Remove deletes a file and releases its content's extents.
func (pv *PVFS) Remove(name string) {
	f := pv.files[name]
	if f == nil {
		return
	}
	f.c.release()
	delete(pv.files, name)
}

// RemoveAll deletes every file, as when the simulation is over.
func (pv *PVFS) RemoveAll() {
	for name := range pv.files {
		pv.Remove(name)
	}
}

// server returns the data server holding the stripe containing offset off.
func (pv *PVFS) server(f *pvfsFile, off int64) *PVFSServer {
	idx := (int(off/pv.stripe) + f.firstServer) % len(pv.servers)
	return pv.servers[idx]
}

// Size returns the file size.
func (h *Handle) Size() int64 { return h.f.c.size }

// Name returns the file name.
func (h *Handle) Name() string { return h.f.name }

// WriteAt writes b at offset off, stripe by stripe: client -> server over the
// fabric, then synchronously to the server disk. A failed server disk fails
// the whole write (PVFS has no redundancy).
func (h *Handle) WriteAt(p *sim.Proc, off int64, b payload.Buffer) error {
	h.check()
	n := b.Size()
	h.pv.BytesWritten += n
	h.f.c.writeAt(off, b)
	for rel := int64(0); rel < n; {
		pos := off + rel
		seg := h.pv.stripe - pos%h.pv.stripe
		if seg > n-rel {
			seg = n - rel
		}
		srv := h.pv.server(h.f, pos)
		p.Sleep(calib.PVFSPerStripeCPU)
		_ = h.pv.fabric.Transfer(p, h.clientNode, srv.Node, seg)
		if err := srv.Disk.Write(p, seg); err != nil {
			return fmt.Errorf("pvfs server %s: %w", srv.Node, err)
		}
		rel += seg
	}
	return nil
}

// Append writes at end of file.
func (h *Handle) Append(p *sim.Proc, b payload.Buffer) error { return h.WriteAt(p, h.f.c.size, b) }

// ReadAt reads [off, off+n): server disk, then server -> client transfer, per
// stripe.
func (h *Handle) ReadAt(p *sim.Proc, off, n int64) payload.Buffer {
	h.check()
	h.pv.BytesRead += n
	data := h.f.c.readAt(off, n)
	for rel := int64(0); rel < n; {
		pos := off + rel
		seg := h.pv.stripe - pos%h.pv.stripe
		if seg > n-rel {
			seg = n - rel
		}
		srv := h.pv.server(h.f, pos)
		p.Sleep(calib.PVFSPerStripeCPU)
		srv.Disk.Read(p, seg)
		_ = h.pv.fabric.Transfer(p, srv.Node, h.clientNode, seg)
		rel += seg
	}
	return data
}

// Content returns the file's full content (no timing cost; for verification).
func (h *Handle) Content() payload.Buffer { return h.f.c.data() }

// Close releases the handle and its server stream registrations.
func (h *Handle) Close() {
	if h.closed {
		return
	}
	h.closed = true
	for _, s := range h.pv.servers {
		s.Disk.EndStream()
	}
}

func (h *Handle) check() {
	if h.closed {
		panic("vfs: use of closed PVFS handle " + h.f.name)
	}
}
