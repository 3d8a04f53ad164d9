package binding

import (
	"testing"

	"canec/internal/can"
)

// TestSubjectOf checks the reverse index on a bound etag, an unbound one
// below the highest bound etag, both reserved etags, an etag above every
// bound one, and after the standby's wire-authoritative conflict path
// unbinds two entries.
func TestSubjectOf(t *testing.T) {
	tb := NewTable()
	e1, err := tb.Bind(0x10)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.BindFixed(0x20, 40); err != nil {
		t.Fatal(err)
	}
	check := func(tb *Table, e can.Etag, want Subject, wantOK bool) {
		t.Helper()
		if s, ok := tb.SubjectOf(e); s != want || ok != wantOK {
			t.Fatalf("SubjectOf(%d) = %#x, %v; want %#x, %v", e, s, ok, want, wantOK)
		}
	}
	check(tb, e1, 0x10, true)
	check(tb, 40, 0x20, true)
	check(tb, 39, 0, false) // unbound, below the highest bound etag
	check(tb, ConfigEtag, 0, false)
	check(tb, SyncEtag, 0, false)
	check(tb, 41, 0, false) // above every bound etag
	check(tb, can.MaxEtag-1, 0, false)

	// The allocator skips an etag bound by BindFixed.
	if err := tb.BindFixed(0x30, e1+1); err != nil {
		t.Fatal(err)
	}
	if e, err := tb.Bind(0x40); err != nil || e != e1+2 {
		t.Fatalf("Bind after a fixed neighbour = %d, %v; want %d", e, err, e1+2)
	}

	// The replica holds 0x50→5 and 0x60→6; the wire says 0x50→6. The
	// standby drops both of the replica's entries and installs the wire's.
	rig := newStandbyRig(0, 1, testHB)
	rep := rig.sa.inner.Table
	if err := rep.BindFixed(0x50, 5); err != nil {
		t.Fatal(err)
	}
	if err := rep.BindFixed(0x60, 6); err != nil {
		t.Fatal(err)
	}
	rig.sa.apply(0x50, 6)
	check(rep, 6, 0x50, true)
	check(rep, 5, 0, false)
	if _, ok := rep.Lookup(0x60); ok {
		t.Fatal("the displaced subject is still bound")
	}
	if rep.Len() != 1 {
		t.Fatalf("replica holds %d bindings, want 1", rep.Len())
	}
	// A freed etag can be bound again.
	if err := rep.BindFixed(0x70, 5); err != nil {
		t.Fatal(err)
	}
	check(rep, 5, 0x70, true)
}

// TestCloneIsIndependent checks that binding or unbinding in a clone
// leaves its source untouched, and the other way round.
func TestCloneIsIndependent(t *testing.T) {
	src := NewTable()
	for _, s := range []Subject{0x1, 0x2, 0x3} {
		if _, err := src.Bind(s); err != nil {
			t.Fatal(err)
		}
	}
	c := src.Clone()
	if got, want := c.Snapshot(), src.Snapshot(); len(got) != len(want) || c.NextEtag() != src.NextEtag() {
		t.Fatalf("clone %v next %d, source %v next %d", got, c.NextEtag(), want, src.NextEtag())
	}
	e2, _ := c.Lookup(0x2)
	c.unbind(0x2, e2)
	if _, err := c.Bind(0x4); err != nil {
		t.Fatal(err)
	}
	if err := c.BindFixed(0x5, 100); err != nil {
		t.Fatal(err)
	}
	if s, ok := src.SubjectOf(e2); !ok || s != 0x2 {
		t.Fatalf("source lost etag %d after the clone unbound it: %#x, %v", e2, s, ok)
	}
	if _, ok := src.SubjectOf(100); ok {
		t.Fatal("source sees the clone's fixed binding")
	}
	if _, ok := src.Lookup(0x4); ok {
		t.Fatal("source sees the clone's new binding")
	}
	if err := src.BindFixed(0x6, 50); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.SubjectOf(50); ok {
		t.Fatal("clone sees the source's later binding")
	}
	if src.Len() != 4 || c.Len() != 4 {
		t.Fatalf("Len source %d clone %d, want 4 and 4", src.Len(), c.Len())
	}
}
