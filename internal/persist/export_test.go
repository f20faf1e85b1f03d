package persist

// Exports for the crash-recovery property test, which lives in package
// persist_test because it drives an engine.DynEngine and engine imports
// persist.
var (
	ListSegments = listSegments
	SegPath      = segPath
	OpenForTest  = testStore
)
