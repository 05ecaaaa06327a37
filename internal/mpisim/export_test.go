package mpisim

// The message records layout_test.go (package mpisim_test, which can
// import the packages that keep records of its events) holds pointer-free.
type (
	SendInfo = sendInfo
	Arrival  = arrival
)

// Advance moves p's clock by dt as a compute of that length would, for
// advance_test.go: no producer in the package makes a non-finite dt.
func (p *Proc) Advance(dt float64) { p.advance(dt, AdvCompute, &zeroVec) }
