package prof

// CheckAgainstOracle lets decode_apps_test.go (package prof_test, which
// can import the root package's bundled apps) hold simulated profile sets
// to the differential property.
var CheckAgainstOracle = checkAgainstOracle
