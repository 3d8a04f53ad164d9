// Package binding implements the paper's dynamic binding layer (§2.1,
// §3.5, detailed in refs [13][12]): the mapping from application-level
// subjects — system-wide unique identifiers naming an event channel — to
// the 14-bit etag field of the CAN identifier, plus the configuration
// protocol that assigns each node its unique 7-bit TxNode number.
//
// Two binding modes are provided. A static Table is computed off-line and
// distributed with the calendar; this is how hard real-time channels are
// bound, since their slot reservations are off-line anyway. The dynamic
// protocol (Agent/Client) binds soft and non real-time channels at run
// time over a reserved configuration channel.
package binding

import (
	"errors"
	"fmt"
	"sort"

	"canec/internal/can"
)

// Subject is the application-level unique identifier of an event channel.
// The wire protocol carries the low 56 bits; Validate rejects larger
// values.
type Subject uint64

// maxSubject is the largest subject the wire protocol can carry.
const maxSubject = Subject(1)<<56 - 1

// Validate reports whether the subject fits the wire encoding.
func (s Subject) Validate() error {
	if s > maxSubject {
		return fmt.Errorf("binding: subject %#x exceeds 56 bits", uint64(s))
	}
	if s == 0 {
		return errors.New("binding: subject 0 is reserved")
	}
	return nil
}

// Reserved etags.
const (
	// ConfigEtag is the configuration/binding channel (etag 0).
	ConfigEtag can.Etag = 0
	// SyncEtag is the clock synchronization channel (highest etag).
	SyncEtag can.Etag = can.MaxEtag
)

// errExhausted is returned when no free etag remains.
var errExhausted = errors.New("binding: etag space exhausted")

// errConflict is returned when a fixed binding clashes with an existing
// one.
var errConflict = errors.New("binding: conflicting binding")

// Table is a bidirectional subject↔etag map with allocation. It is pure
// data — the Agent wraps it with the wire protocol — so off-line tools,
// tests and the static HRT configuration can use it directly.
type Table struct {
	fwd map[Subject]can.Etag
	// rev is the reverse index, indexed by etag and grown to the highest
	// bound one; subject 0 (never valid) marks an unbound etag. A dense
	// slice keeps SubjectOf, which the observer calls per bus record, to
	// a bounds check and a load.
	rev  []Subject
	next can.Etag
}

// NewTable returns an empty table whose allocator skips the reserved
// etags.
func NewTable() *Table {
	return &Table{
		fwd:  make(map[Subject]can.Etag),
		next: ConfigEtag + 1,
	}
}

// Bind returns the etag bound to the subject, allocating one if needed.
// Binding is idempotent: every node asking for the same subject receives
// the same etag, which is what makes subject-based filtering work in the
// communication controller.
func (t *Table) Bind(s Subject) (can.Etag, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if e, ok := t.fwd[s]; ok {
		return e, nil
	}
	for t.next < SyncEtag {
		e := t.next
		t.next++
		if _, taken := t.SubjectOf(e); taken {
			continue
		}
		t.set(s, e)
		return e, nil
	}
	return 0, errExhausted
}

// BindFixed installs a pre-computed binding (off-line HRT configuration).
func (t *Table) BindFixed(s Subject, e can.Etag) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if e == ConfigEtag || e == SyncEtag {
		return fmt.Errorf("binding: etag %d is reserved", e)
	}
	if cur, ok := t.fwd[s]; ok && cur != e {
		return errConflict
	}
	if cur, ok := t.SubjectOf(e); ok && cur != s {
		return errConflict
	}
	t.set(s, e)
	return nil
}

// set records one binding in both directions.
func (t *Table) set(s Subject, e can.Etag) {
	t.fwd[s] = e
	if int(e) >= len(t.rev) {
		t.rev = append(t.rev, make([]Subject, int(e)+1-len(t.rev))...)
	}
	t.rev[e] = s
}

// unbind removes one entry. Only the standby agent's wire-authoritative
// conflict resolution uses it; bindings are otherwise immutable for the
// lifetime of a configuration.
func (t *Table) unbind(s Subject, e can.Etag) {
	delete(t.fwd, s)
	t.rev[e] = 0
}

// Lookup returns the etag bound to a subject.
func (t *Table) Lookup(s Subject) (can.Etag, bool) {
	e, ok := t.fwd[s]
	return e, ok
}

// SubjectOf returns the subject bound to an etag.
func (t *Table) SubjectOf(e can.Etag) (Subject, bool) {
	if int(e) >= len(t.rev) || t.rev[e] == 0 {
		return 0, false
	}
	return t.rev[e], true
}

// Len returns the number of bindings.
func (t *Table) Len() int { return len(t.fwd) }

// NextEtag returns the allocator's next-candidate etag, used by the
// standby agent to keep its replica allocation pointer aligned with the
// authoritative table.
func (t *Table) NextEtag() can.Etag { return t.next }

// AdvanceNext moves the allocation pointer forward to at least e. It never
// moves backward, so a replica applying checkpoint frames out of order
// converges to the authoritative pointer.
func (t *Table) AdvanceNext(e can.Etag) {
	if e > t.next {
		t.next = e
	}
}

// Binding is one subject↔etag entry of a Snapshot.
type Binding struct {
	Subject Subject
	Etag    can.Etag
}

// Snapshot returns the table's entries ordered by etag. The deterministic
// order matters: the agent's checkpoint stream cycles through the snapshot,
// and campaign reproducibility per seed forbids map-iteration order leaking
// onto the wire.
func (t *Table) Snapshot() []Binding {
	out := make([]Binding, 0, len(t.fwd))
	for s, e := range t.fwd {
		out = append(out, Binding{Subject: s, Etag: e})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Etag < out[j].Etag })
	return out
}

// Clone returns an independent copy, used to distribute the off-line
// configuration to every node.
func (t *Table) Clone() *Table {
	c := NewTable()
	for s, e := range t.fwd {
		c.fwd[s] = e
	}
	c.rev = append([]Subject(nil), t.rev...)
	c.next = t.next
	return c
}
