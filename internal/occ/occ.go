// Package occ implements the optimistic concurrency control the paper's
// conclusion names as future work ("we intend to study the use of
// optimistic concurrency control and speculative transaction processing
// techniques"): Kung–Robinson style backward validation with version
// checking.
//
// A transaction runs in three phases. In the read phase it snapshots the
// versions of every object it touches and computes speculatively,
// holding no locks. At commit it validates: if any object it read
// changed since the snapshot, the transaction restarts (if its deadline
// still permits); otherwise its writes are installed atomically.
// Validation is serialized, which makes the version check a consistent
// cut.
//
// In a real-time setting the interesting trade is blocking versus wasted
// work: 2PL transactions wait for locks but never redo computation; OCC
// transactions never wait but may burn their slack re-executing. The
// cmd/rtbench "occ" experiment compares the two on the centralized
// system across update mixes.
package occ

import "siteselect/internal/lockmgr"

// Validator is the shared validation state: the committed version of
// every object. Validation calls must be externally serialized (the
// centralized engine runs them in a one-slot critical section).
type Validator struct {
	versions []int64

	// Validations and Conflicts count outcomes; Restarts counts
	// transactions sent back to their read phase.
	Validations int64
	Conflicts   int64
}

// NewValidator returns a validator over dbSize objects at version zero.
func NewValidator(dbSize int) *Validator {
	return &Validator{versions: make([]int64, dbSize)}
}

// Version returns the committed version of obj.
func (v *Validator) Version(obj lockmgr.ObjectID) int64 { return v.versions[obj] }

// ReadSet snapshots the versions of objs for a starting transaction,
// reusing dst's storage.
func (v *Validator) ReadSet(dst []int64, objs []lockmgr.ObjectID) []int64 {
	dst = dst[:0]
	for _, obj := range objs {
		dst = append(dst, v.versions[obj])
	}
	return dst
}

// Validate checks a transaction's read snapshot against the current
// committed versions and, when valid, installs its writes (bumping their
// versions). It reports whether the transaction committed.
func (v *Validator) Validate(objs []lockmgr.ObjectID, snapshot []int64, writes []bool) bool {
	v.Validations++
	for i, obj := range objs {
		if v.versions[obj] != snapshot[i] {
			v.Conflicts++
			return false
		}
	}
	for i, obj := range objs {
		if writes[i] {
			v.versions[obj]++
		}
	}
	return true
}
