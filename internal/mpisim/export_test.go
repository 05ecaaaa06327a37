package mpisim

// The message records layout_test.go (package mpisim_test, which can
// import the packages that keep records of its events) holds pointer-free.
type (
	SendInfo = sendInfo
	Arrival  = arrival
)
