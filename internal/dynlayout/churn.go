package dynlayout

// MutTree is the mutation surface shared by *Dyn and the engine's
// DynEngine: just enough to drive one churn schedule against either.
// BenchmarkE14DynChurn, its only user, takes both: a bare *Dyn in its
// naive-rebuild arm, a DynEngine in its dyn arms.
type MutTree interface {
	N() int
	IsLeaf(v int) bool
	InsertLeaf(parent int) (int, error)
	DeleteLeaf(v int) (int, error)
}

// DeleteYoungestLeaf removes the highest-id leaf whose id is ≥ floor
// and reports whether one existed. With floor set to a churn workload's
// original vertex count, only previously inserted leaves are ever
// deleted, so DeleteLeaf's swap-last renumbering can never touch an
// original id — queries addressed to the original vertices stay valid
// for the whole run. BenchmarkE14DynChurn builds its delete steps on
// exactly this invariant.
func DeleteYoungestLeaf(mt MutTree, floor int) (bool, error) {
	for v := mt.N() - 1; v >= floor; v-- {
		if mt.IsLeaf(v) {
			if _, err := mt.DeleteLeaf(v); err != nil {
				return false, err
			}
			return true, nil
		}
	}
	return false, nil
}
