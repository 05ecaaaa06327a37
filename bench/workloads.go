package bench

// workload is one of the benchmark's four traffic shapes. baseOps is the
// op count of a 30 s timed section on the 2-core reference box (see
// README.md for the calibration runs); every run scales it by
// seconds/30 and nothing else.
type workload struct {
	name    string
	baseOps int
	// roundTo keeps the op count a multiple of the input-set size, so that
	// every input is run equally often and accuracy is over whole passes.
	roundTo int
	// minAccuracy is the answer_accuracy below which a run is not correct.
	minAccuracy float64
	setup       func(env) (instance, error)
}

var workloads = []*workload{
	{
		name:        "sweep-zeusmp",
		baseOps:     160,
		minAccuracy: 1,
		setup:       setupSweepZeusmp,
	},
	{
		name:        "corpus-accuracy",
		baseOps:     16000,
		roundTo:     corpusCases,
		minAccuracy: 0.9,
		setup:       setupCorpusAccuracy,
	},
	{
		name:        "serve-detect-stored",
		baseOps:     480,
		minAccuracy: 1,
		setup:       setupServeDetectStored,
	},
	{
		name:        "serve-ingest-watch",
		baseOps:     2400,
		minAccuracy: 1,
		setup:       setupServeIngestWatch,
	},
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// WorkloadNames lists the workloads in BENCHMARK.json order.
func WorkloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
