package occ

import (
	"testing"
	"testing/quick"

	"siteselect/internal/lockmgr"
)

func TestValidateCleanCommit(t *testing.T) {
	v := NewValidator(10)
	objs := []lockmgr.ObjectID{1, 2, 3}
	snap := v.ReadSet(nil, objs)
	if !v.Validate(objs, snap, []bool{false, true, false}) {
		t.Fatal("unconflicted transaction failed validation")
	}
	if v.Version(2) != 1 || v.Version(1) != 0 {
		t.Fatalf("versions = %d/%d", v.Version(1), v.Version(2))
	}
	if v.Validations != 1 || v.Conflicts != 0 {
		t.Fatalf("counters = %d/%d", v.Validations, v.Conflicts)
	}
	// A restart re-snapshots into the same storage.
	again := v.ReadSet(snap, objs)
	if &again[0] != &snap[0] || again[0] != 0 || again[1] != 1 || again[2] != 0 {
		t.Fatalf("re-snapshot = %v, want [0 1 0] in the old storage", again)
	}
}

func TestValidateDetectsConflict(t *testing.T) {
	v := NewValidator(10)
	objs := []lockmgr.ObjectID{5}
	snapA := v.ReadSet(nil, objs)
	snapB := v.ReadSet(nil, objs)
	if !v.Validate(objs, snapA, []bool{true}) {
		t.Fatal("first writer should commit")
	}
	if v.Validate(objs, snapB, []bool{true}) {
		t.Fatal("second writer read a stale version and must fail")
	}
	if v.Conflicts != 1 {
		t.Fatalf("conflicts = %d", v.Conflicts)
	}
	// After re-reading, the restarted transaction commits.
	snapB2 := v.ReadSet(nil, objs)
	if !v.Validate(objs, snapB2, []bool{true}) {
		t.Fatal("restarted transaction should commit")
	}
	if v.Version(5) != 2 {
		t.Fatalf("version = %d", v.Version(5))
	}
}

func TestReadOnlyTransactionsNeverConflictWithEachOther(t *testing.T) {
	v := NewValidator(4)
	objs := []lockmgr.ObjectID{0, 1, 2, 3}
	reads := []bool{false, false, false, false}
	s1 := v.ReadSet(nil, objs)
	s2 := v.ReadSet(nil, objs)
	if !v.Validate(objs, s1, reads) || !v.Validate(objs, s2, reads) {
		t.Fatal("read-only transactions conflicted")
	}
}

// Property: serial validation order defines a serializable history —
// every committed transaction saw the versions current at its commit
// point, i.e. a snapshot that no committed writer invalidated.
func TestSerialValidationProperty(t *testing.T) {
	type step struct {
		Obj   uint8
		Write bool
		Stale bool // validate against an old snapshot
	}
	f := func(steps []step) bool {
		v := NewValidator(8)
		old := v.ReadSet(nil, []lockmgr.ObjectID{0, 1, 2, 3, 4, 5, 6, 7})
		for _, st := range steps {
			obj := lockmgr.ObjectID(st.Obj % 8)
			objs := []lockmgr.ObjectID{obj}
			var snap []int64
			if st.Stale {
				snap = []int64{old[obj]}
			} else {
				snap = v.ReadSet(nil, objs)
			}
			committed := v.Validate(objs, snap, []bool{st.Write})
			current := v.Version(obj)
			if committed && st.Write && current == snap[0] {
				return false // write committed without bumping
			}
			if !committed && snap[0] == current {
				return false // rejected although the snapshot was current
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
