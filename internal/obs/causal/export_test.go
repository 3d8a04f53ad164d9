package causal

// CheckOracle lets the causal_test package replay recorded streams, which
// it can build from scenarios without an import cycle, through the
// engine-vs-oracle comparison.
var CheckOracle = checkOracle
