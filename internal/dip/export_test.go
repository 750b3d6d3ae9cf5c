package dip

import (
	"fmt"
	"sync"
)

// ReadLog is the test-only recording view hook: attached to a run (and,
// through RunConfig.Child, to every sub-run) with WithReadLog, it logs
// every read a verifier makes through its views — kind, port and round,
// raw labels and rows alike — and every row decode, and checks each as
// it happens:
//
//   - a Coins call for verifier round r reads only what was delivered
//     before it: labels of prover rounds 0..r and its own coins of
//     rounds before r, and no row;
//   - every read stays within the node's own data and its own ports,
//     and reaches the neighbour and edge behind the port;
//   - every row is decoded exactly once per run, before it is read.
//
// A read that breaks a rule is vetoed, so the verifier sees a zero value
// instead of the engine's storage, and recorded as a violation.
type ReadLog struct {
	mu         sync.Mutex
	reads      [readNbrRow + 1]int
	decoded    map[rowTable][]int
	violations []string
}

// NewReadLog returns an empty log.
func NewReadLog() *ReadLog { return &ReadLog{decoded: map[rowTable][]int{}} }

// WithReadLog attaches l to the run.
func WithReadLog(l *ReadLog) RunOption { return func(c *RunConfig) { c.hook = l } }

func (l *ReadLog) read(v *View, kind readKind, port, round int) bool {
	bad := l.check(v, kind, port, round)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reads[kind]++
	if bad != "" {
		l.violations = append(l.violations, fmt.Sprintf("node %d, %s, kind %d port %d round %d: %s",
			v.v, phase(v), kind, port, round, bad))
		return false
	}
	if kind == readOwnRow || kind == readNbrRow {
		idx := v.self
		if kind == readNbrRow {
			idx = v.nbr[port]
		}
		if n := l.decoded[v.rows]; n == nil || n[idx] != 1 {
			l.violations = append(l.violations, fmt.Sprintf("node %d reads row %d, not decoded exactly once", v.v, idx))
			return false
		}
	}
	return true
}

// check returns why the read breaks a rule, or "".
func (l *ReadLog) check(v *View, kind readKind, port, round int) string {
	label := kind == readOwn || kind == readNbr || kind == readEdgeLab
	switch {
	case port < -1 || port >= v.Deg():
		return "port out of range"
	case (port == -1) != (kind == readInput || kind == readOwn || kind == readCoin || kind == readOwnRow):
		return "port on a read of the node's own data, or none on a port read"
	case label && (round < 0 || round >= len(v.rounds)):
		return "prover round not delivered"
	case kind == readCoin && (round < 0 || round >= len(v.coins)):
		return "coin round not published"
	}
	if v.round >= 0 { // Coins(v.round)
		switch {
		case len(v.rounds) != v.round+1 || len(v.coins) != v.round:
			return "view holds rounds beyond the call's"
		case label && round > v.round:
			return "reads a later prover round"
		case kind == readOwnRow || kind == readNbrRow:
			return "reads a row before the last prover round"
		}
	}
	if port >= 0 {
		// The port must lead to the neighbour and edge behind it: in
		// Runner the index spaces are vertex and edge ids, in
		// channelRunner the node's own delivery slots.
		runner := &v.nbr[0] == &v.ports[0] // Runner shares one table
		if runner && (v.nbr[port] != v.ports[port] || v.edge[port] != v.eid[port]) ||
			!runner && (v.nbr[port] != v.self+1+port || v.edge[port] != v.self-v.v+port) {
			return "port index does not lead to the port's neighbour"
		}
		if v.ports[port] == v.v {
			return "port leads back to the node"
		}
	}
	return ""
}

func phase(v *View) string {
	if v.round < 0 {
		return "Decide"
	}
	return fmt.Sprintf("Coins(%d)", v.round)
}

func (l *ReadLog) decodeRow(t rowTable, idx int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.decoded[t]
	if n == nil {
		n = make([]int, t.size())
		l.decoded[t] = n
	}
	if n[idx]++; n[idx] > 1 {
		l.violations = append(l.violations, fmt.Sprintf("row %d decoded %d times in one run", idx, n[idx]))
	}
}

// Err reports the first violations, and any run whose row table was
// not decoded in full.
func (l *ReadLog) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	v := l.violations
	for t, n := range l.decoded {
		for idx, c := range n {
			if c != 1 {
				v = append(v, fmt.Sprintf("row %d of a %d-row table decoded %d times", idx, t.size(), c))
			}
		}
	}
	if len(v) == 0 {
		return nil
	}
	return fmt.Errorf("%d violations, first: %v", len(v), v[:min(len(v), 5)])
}

// Counts returns how many reads the log saw of raw data (labels, coins,
// inputs, orientation) and of rows, and how many runs decoded rows.
func (l *ReadLog) Counts() (raw, rows, rowRuns int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for k, c := range l.reads {
		if readKind(k) == readOwnRow || readKind(k) == readNbrRow {
			rows += c
		} else {
			raw += c
		}
	}
	return raw, rows, len(l.decoded)
}
