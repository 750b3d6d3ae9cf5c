package dip

import "repro/internal/bitio"

// RowVerifier is a Verifier that decodes each node's labels once per
// run into a row, instead of once per reader. The node's own Decide and
// every neighbour's Decide read the row through their views (OwnRow,
// NbrRow). A row is a pure function of one node's node labels: it never
// depends on the node's coins, its edge labels, or another node's data,
// so decoding it once and sharing it changes no verdict.
//
// The Runner decodes every row exactly once per run, in one parallel
// pass after the last prover round; the channel engine, the literal
// message-passing model the tests hold Runner to, has each node decode
// its own row and its neighbours' rows from the labels it received.
// Decoding is pure, so both engines see the same rows. The table is allocated per run and
// dropped with it.
type RowVerifier interface {
	Verifier
	// Rows returns the verifier's row codec, built with RowsOf.
	Rows() Rows
}

// Rows is a row codec: how to decode one node's row and how to store a
// run's worth of them. RowsOf builds one.
type Rows interface {
	newTable(n int) rowTable
}

// RowsOf returns the row codec whose rows are T values. decode fills
// row from one node's node labels, labels[r] being its label of prover
// round r, and reports whether they decoded; it must not retain labels.
// A node whose own row or a neighbour's row failed to decode reads
// (nil, false) and must reject, as it would on a failed decode of its
// own.
func RowsOf[T any](decode func(labels []bitio.String, row *T) bool) Rows {
	return rowCodec[T](decode)
}

type rowCodec[T any] func(labels []bitio.String, row *T) bool

func (c rowCodec[T]) newTable(n int) rowTable {
	return &table[T]{decode: c, rows: make([]T, n), ok: make([]bool, n)}
}

// rowTable is one run's rows, indexed like the node labels of the
// engine that built it (see View.self and View.nbr).
type rowTable interface {
	decodeAt(idx int, labels []bitio.String)
	size() int
}

type table[T any] struct {
	decode rowCodec[T]
	rows   []T
	ok     []bool
}

func (t *table[T]) decodeAt(idx int, labels []bitio.String) {
	t.ok[idx] = t.decode(labels, &t.rows[idx])
}

func (t *table[T]) size() int { return len(t.rows) }

func (t *table[T]) at(idx int) (*T, bool) {
	if !t.ok[idx] {
		return nil, false
	}
	return &t.rows[idx], true
}

// OwnRow returns the node's own row, or (nil, false) when its labels
// did not decode. The view's verifier must be a RowVerifier with rows
// of type T.
func OwnRow[T any](v *View) (*T, bool) {
	if v.hook != nil && !v.hook.read(v, readOwnRow, -1, -1) {
		return nil, false
	}
	return v.rows.(*table[T]).at(v.self)
}

// NbrRow returns the row of the neighbour at port p, or (nil, false)
// when its labels did not decode.
func NbrRow[T any](v *View, p int) (*T, bool) {
	if v.hook != nil && !v.hook.read(v, readNbrRow, p, -1) {
		return nil, false
	}
	return v.rows.(*table[T]).at(v.nbr[p])
}

// decodeRow decodes into t the row at index idx of rounds' node labels,
// gathering them in buf (one slot per round).
func decodeRow(t rowTable, rounds []frozenAssignment, idx int, buf []bitio.String, hook viewHook) {
	for r := range rounds {
		buf[r] = rounds[r].node[idx]
	}
	t.decodeAt(idx, buf[:len(rounds)])
	if hook != nil {
		hook.decodeRow(t, idx)
	}
}
