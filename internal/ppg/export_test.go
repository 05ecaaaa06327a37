package ppg

// BuildOracle lets decode_apps_test.go (package ppg_test, which can import
// the root package's bundled apps) hold streamed graphs to the old Build.
var BuildOracle = buildOracle
