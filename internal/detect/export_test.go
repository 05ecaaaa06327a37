package detect

// EncodeOracle lets encode_apps_test.go (package detect_test, which can
// import the root package's bundled apps and the synth corpus) hold
// simulated reports to the writer-vs-oracle property.
var EncodeOracle = encodeOracle

// FuzzSeedReport is the report that exercises every wire feature.
var FuzzSeedReport = fuzzSeedReport
