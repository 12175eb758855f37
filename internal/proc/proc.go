// Package proc models operating-system processes as checkpointable address
// spaces: named memory segments over simulated memory regions, owned by a
// per-node process table. The BLCR layer walks these address spaces to build
// process images, and the migration framework moves them between nodes.
package proc

import (
	"fmt"

	"ibmig/internal/mem"
)

// Segment is one mapped region of a process address space.
type Segment struct {
	Name   string // "text", "data", "heap", "stack", ...
	VAddr  uint64
	Region *mem.Region
}

// Process is one simulated OS process.
type Process struct {
	PID      int
	Name     string
	Rank     int // MPI rank, or -1
	Node     string
	Segments []*Segment
}

// SegmentSpec describes a segment to create.
type SegmentSpec struct {
	Name  string
	VAddr uint64
	Size  int64
	Seed  uint64 // deterministic initial content
}

// New creates a process with the given address-space layout.
func New(pid int, name string, rank int, node string, segs []SegmentSpec) *Process {
	pr := &Process{PID: pid, Name: name, Rank: rank, Node: node}
	for _, s := range segs {
		pr.Segments = append(pr.Segments, &Segment{
			Name:   s.Name,
			VAddr:  s.VAddr,
			Region: mem.NewRegion(s.Size, s.Seed),
		})
	}
	return pr
}

// ImageSize returns the total mapped bytes — the size of a full memory dump.
func (pr *Process) ImageSize() int64 {
	var n int64
	for _, s := range pr.Segments {
		n += s.Region.Size()
	}
	return n
}

// Checksum returns a combined checksum over all segments, in segment order.
func (pr *Process) Checksum() uint64 {
	var h uint64 = 14695981039346656037
	for _, s := range pr.Segments {
		c := s.Region.Checksum()
		for i := 0; i < 8; i++ {
			h = (h ^ (c >> (8 * uint(i)) & 0xff)) * 1099511628211
		}
	}
	return h
}

// Segment returns the named segment, or nil.
func (pr *Process) Segment(name string) *Segment {
	for _, s := range pr.Segments {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Release drops every segment's extent tree (see mem.Region.Release). Called
// when the process's lifecycle ends: it exited, or its image has migrated
// away and the source copy is being discarded.
func (pr *Process) Release() {
	for _, s := range pr.Segments {
		s.Region.Release()
	}
}

// Table is a per-node process table.
type Table struct {
	Node    string
	nextPID int
	procs   map[int]*Process
}

// NewTable creates an empty process table for a node.
func NewTable(node string) *Table {
	return &Table{Node: node, nextPID: 1000, procs: make(map[int]*Process)}
}

// Spawn creates a new process in this table with a fresh PID.
func (t *Table) Spawn(name string, rank int, segs []SegmentSpec) *Process {
	t.nextPID++
	pr := New(t.nextPID, name, rank, t.Node, segs)
	t.procs[pr.PID] = pr
	return pr
}

// Adopt inserts an existing process (e.g. one restored from a checkpoint
// image) into the table, preserving its PID as BLCR does. It fails if the PID
// is taken.
func (t *Table) Adopt(pr *Process) error {
	if _, exists := t.procs[pr.PID]; exists {
		return fmt.Errorf("proc: pid %d already exists on %s", pr.PID, t.Node)
	}
	pr.Node = t.Node
	t.procs[pr.PID] = pr
	return nil
}

// Remove deletes a process from the table (exit or migration away), returning
// its memory.
func (t *Table) Remove(pid int) {
	if pr := t.procs[pid]; pr != nil {
		pr.Release()
	}
	delete(t.procs, pid)
}

// Clear empties the table — every process is gone at once, as when the node
// hosting it crashes. Segment memory is released: the simulated images die
// with the node, and any checkpoint copy lives in the VFS.
func (t *Table) Clear() {
	for _, pr := range t.procs {
		pr.Release()
	}
	t.procs = make(map[int]*Process)
}

// Get returns the process with the given PID, or nil.
func (t *Table) Get(pid int) *Process { return t.procs[pid] }

// Len returns the number of live processes.
func (t *Table) Len() int { return len(t.procs) }
