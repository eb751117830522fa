package corrclust

// LocalSearchOracle exposes the test-only LOCALSEARCH reference sweep to the
// package's external tests.
var LocalSearchOracle = localSearchReference
