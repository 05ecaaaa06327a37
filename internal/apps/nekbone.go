package apps

// Nekbone port (paper §VI-D3). Nekbone's CG iteration spends its time in
// a dgemm loop (blas.f:8941); the cluster's cores have differing memory
// speeds and ranks are pinned to cores, so the memory-bound naive dgemm
// runs at different speeds per rank (equal TOT_LST_INS, unequal TOT_CYC)
// and MPI_Waitall in comm_wait (comm.h:243) inherits the skew.
//
// The paper's fix, applied in -opt: an optimized BLAS with blocking that
// cuts load/store traffic ~90%, making the kernel compute-bound and
// insensitive to per-core memory speed.

func init() {
	register(&App{
		Name: "nekbone", File: "nekbone.mp", PaperKLoc: 31.8,
		Description: "Nekbone spectral-element CG: memory-bound dgemm on heterogeneous cores, halo Waitall + glsum allreduce",
		Source:      nekboneSource(false),
		MemSpeed:    nekboneMemSpeed,
	})
	register(&App{
		Name: "nekbone-opt", File: "nekbone.mp", PaperKLoc: 31.8,
		Description: "Nekbone with the paper's fix: blocked BLAS dgemm (~90% fewer loads/stores)",
		Source:      nekboneSource(true),
		MemSpeed:    nekboneMemSpeed,
	})
}

// nekboneMemSpeed models the heterogeneous memory speed the paper found:
// "the memory access speed of each processor core differs, and the
// processes are bound to different processor cores".
func nekboneMemSpeed(rank int) float64 {
	return 1.0 + 0.8*float64((rank*11)%5)/4.0
}

func nekboneSource(opt bool) string {
	optFlag := "0"
	if opt {
		optFlag = "1"
	}
	return `// nekbone.mp: Nekbone spectral-element proxy (simplified)
// semhat: spectral-element operator setup (GLL points, derivative
// matrices); scalar setup code that contracts away.
func semhat(order) {
	var zpts = alloc(16);
	var wts = alloc(16);
	for (var p = 0; p < order; p = p + 1) {
		zpts[p] = 0 - 1.0 + 2.0 * p / (order - 1);
		wts[p] = 2.0 / order;
	}
	var norm = 0;
	for (var q = 0; q < order; q = q + 1) {
		norm = norm + wts[q] * zpts[q] * zpts[q];
	}
	if (norm < 0.1) {
		norm = 0.1;
	}
	return norm;
}
// glmapm1: element-to-rank map for the gather-scatter setup.
func glmapm1(rank, np, nelt) {
	var base = floor(nelt / np);
	var extra = nelt % np;
	var mine = base;
	if (rank < extra) {
		mine = base + 1;
	}
	var first = rank * base + min(rank, extra);
	return first + mine * 0;
}
// dgemm: small dense matrix multiplies over all elements
// (analog of the LOOP in dgemm at blas.f:8941).
func dgemm(work, opt) {
	if (opt == 1) {
		// Blocked BLAS: ~90% fewer loads/stores, cache-resident tiles.
		for (var e = 0; e < 8; e = e + 1) {
			compute(work / 8, work / 256, work / 512, 131072);
		}
	} else {
		// Naive mxm: streams operands from memory every time.
		for (var e2 = 0; e2 < 8; e2 = e2 + 1) {
			compute(work / 8, work / 32, work / 64, 8388608);
		}
	}
}
// comm_wait: gather-scatter halo completion (analog of comm.h:243).
func comm_wait(rank, np) {
	var next = (rank + 1) % np;
	var prev = (rank - 1 + np) % np;
	var r1 = mpi_irecv(prev, 5, 65536);
	var r2 = mpi_irecv(next, 6, 65536);
	mpi_isend(next, 5, 65536);
	mpi_isend(prev, 6, 65536);
	mpi_waitall();              // comm.h:243 analog
}
func main() {
	var rank = mpi_rank();
	var np = mpi_size();
	var norm = semhat(10);
	var firstElt = glmapm1(rank, np, 16384);
	var work = 3.2e9 / np + norm * 0 + firstElt * 0;
	var opt = ` + optFlag + `;
	mpi_bcast(0, 64);           // distribute solver parameters
	for (var cg = 0; cg < 12; cg = cg + 1) {
		dgemm(work, opt);
		comm_wait(rank, np);
		mpi_allreduce(8);       // glsum
	}
}
`
}
