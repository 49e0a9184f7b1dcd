package ir

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
)

// Digest returns a SHA-256 digest of the program's identity: every field
// CloneProgram copies. That is each function's name, parameter and
// register counts, block-ID allocator and blocks (ID, LayoutIndex, every
// instruction field, every terminator field with successors by block ID);
// each global's name, address, size and initializer; MemSize; and the
// branch-ID allocator. Two programs with equal digests therefore behave
// identically under every later pass, interpreter and measurement — the
// property that lets the bench engine measure a program once however many
// heuristic sets lowered to it. Dump is not such a key: it omits
// initializers, MemSize and the allocators.
//
// Every variable-length part is length-prefixed, so the encoding is
// unambiguous; a nil and an empty slice encode alike, as CloneProgram
// treats them alike. Fields are appended as varints, not formatted, so a
// roster program digests in tens of microseconds.
func (p *Program) Digest() [32]byte {
	d := digester{h: sha256.New(), buf: make([]byte, 0, digestChunk+256)}
	d.num(p.MemSize)
	d.num(int64(p.nextBranchID))
	d.num(int64(len(p.Globals)))
	for _, g := range p.Globals {
		d.str(g.Name)
		d.num(g.Addr)
		d.num(g.Size)
		// Initializers are mostly long zero runs (buffers), so they
		// encode as (value, run length) pairs.
		d.num(int64(len(g.Init)))
		for i := 0; i < len(g.Init); {
			j := i + 1
			for j < len(g.Init) && g.Init[j] == g.Init[i] {
				j++
			}
			d.num(g.Init[i])
			d.num(int64(j - i))
			i = j
		}
	}
	d.num(int64(len(p.Funcs)))
	for _, f := range p.Funcs {
		d.str(f.Name)
		d.num(int64(f.NParams))
		d.num(int64(f.NRegs))
		d.num(int64(f.nextID))
		d.num(int64(len(f.Blocks)))
		for _, b := range f.Blocks {
			d.num(int64(b.ID))
			d.num(int64(b.LayoutIndex))
			d.num(int64(len(b.Insts)))
			for i := range b.Insts {
				d.inst(&b.Insts[i])
			}
			d.term(&b.Term)
		}
	}
	return d.sum()
}

// digestChunk is how many encoded bytes the digester buffers before
// handing them to the hash.
const digestChunk = 4096

type digester struct {
	h   hash.Hash
	buf []byte
}

func (d *digester) num(v int64) {
	d.buf = binary.AppendVarint(d.buf, v)
	if len(d.buf) >= digestChunk {
		d.h.Write(d.buf)
		d.buf = d.buf[:0]
	}
}

func (d *digester) str(s string) {
	d.num(int64(len(s)))
	d.buf = append(d.buf, s...)
}

func (d *digester) operand(o Operand) {
	imm := int64(0)
	if o.IsImm {
		imm = 1
	}
	d.num(imm)
	d.num(int64(o.Reg))
	d.num(o.Imm)
}

// block encodes a successor edge by ID; -1 stands for no block.
func (d *digester) block(b *Block) {
	if b == nil {
		d.num(-1)
		return
	}
	d.num(int64(b.ID))
}

func (d *digester) inst(in *Inst) {
	d.num(int64(in.Op))
	d.num(int64(in.Dst))
	d.operand(in.A)
	d.operand(in.B)
	d.str(in.Callee)
	d.num(int64(len(in.Args)))
	for _, a := range in.Args {
		d.operand(a)
	}
	d.num(int64(in.SeqID))
	d.num(int64(in.Sub))
	d.num(int64(in.Rel))
}

func (d *digester) term(t *Term) {
	d.num(int64(t.Kind))
	d.num(int64(t.Rel))
	d.block(t.Next)
	d.block(t.Taken)
	d.operand(t.Index)
	d.num(int64(len(t.Targets)))
	for _, b := range t.Targets {
		d.block(b)
	}
	d.operand(t.Val)
	d.num(int64(t.BranchID))
	d.num(int64(t.Slot))
}

func (d *digester) sum() [32]byte {
	d.h.Write(d.buf)
	var out [32]byte
	d.h.Sum(out[:0])
	return out
}
